package restrict

// Empirical validation of the Section 5 optimality claim: "our type
// rules always admit a unique maximum set of let expressions that can
// be restricted. Our inference algorithm computes this optimal
// annotation."
//
// For random programs we check both directions against the checker:
//
//   - every let that inference marks restrict, when checked as an
//     explicit restrict, verifies (soundness of inference);
//   - every let that inference leaves alone, when force-marked
//     restrict, FAILS checking (maximality: nothing restrictable was
//     missed).
//
// Because marking mutates the AST, each probe re-parses the program
// and replays the inferred marks plus one extra.

import (
	"testing"
	"testing/quick"

	"localalias/internal/ast"
	"localalias/internal/parser"
	"localalias/internal/progen"
	"localalias/internal/source"
	"localalias/internal/types"
)

// declStmts returns the DeclStmt nodes of a program in source order.
func declStmts(prog *ast.Program) []*ast.DeclStmt {
	var out []*ast.DeclStmt
	ast.Inspect(prog, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeclStmt); ok {
			out = append(out, d)
		}
		return true
	})
	return out
}

// checkWithMarks parses src, applies the restrict marks (by DeclStmt
// index), and reports whether restrict checking passes. Checking runs
// under the liberal Section 5 semantics, which is the semantics the
// optimality claim is stated for (inference's let-or-restrict rule
// makes the restrict effect conditional on use).
func checkWithMarks(t *testing.T, src string, marks map[int]bool) bool {
	t.Helper()
	var diags source.Diagnostics
	prog := parser.Parse("probe.mc", src, &diags)
	tinfo := types.Check(prog, &diags)
	if diags.HasErrors() {
		t.Fatalf("probe invalid:\n%s", diags.String())
	}
	for i, d := range declStmts(prog) {
		if marks[i] {
			d.Restrict = true
		}
	}
	var cdiags source.Diagnostics
	return CheckWith(tinfo, &cdiags, CheckOptions{Liberal: true}).OK()
}

func TestInferenceOptimalityQuick(t *testing.T) {
	probes := 0
	prop := func(seed int64) bool {
		src := progen.Generate(seed)

		// Run inference on a fresh parse.
		var diags source.Diagnostics
		prog := parser.Parse("gen.mc", src, &diags)
		tinfo := types.Check(prog, &diags)
		if diags.HasErrors() {
			t.Fatalf("generator output invalid:\n%s", diags.String())
		}
		// Only consider programs whose explicit annotations already
		// check: inference's guarantees are stated for such programs.
		var pre source.Diagnostics
		if !Check(tinfo, &pre).OK() {
			return true
		}

		var idiags source.Diagnostics
		Infer(tinfo, &idiags, Options{})

		inferred := map[int]bool{}
		var candidates []int
		for i, d := range declStmts(prog) {
			if d.Restrict {
				inferred[i] = true
			}
			// Ref-typed lets are the candidate population.
			if sym := tinfo.BinderOf(d); sym != nil {
				if _, isRef := sym.Type.(*types.Ref); isRef {
					candidates = append(candidates, i)
				}
			}
		}

		// Soundness: the inferred annotation checks as explicit.
		if !checkWithMarks(t, src, inferred) {
			t.Logf("inferred annotation fails checking (seed %d):\n%s", seed, src)
			return false
		}

		// Maximality: adding any one rejected candidate must fail.
		for _, i := range candidates {
			if inferred[i] {
				continue
			}
			probes++
			extended := map[int]bool{i: true}
			for k := range inferred {
				extended[k] = true
			}
			if checkWithMarks(t, src, extended) {
				t.Logf("candidate %d was restrictable but not inferred (seed %d):\n%s",
					i, seed, src)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if probes == 0 {
		t.Error("no maximality probes ran; generator produced no rejected candidates")
	}
	t.Logf("maximality probes: %d", probes)
}
