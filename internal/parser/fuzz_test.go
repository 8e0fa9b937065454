package parser

import (
	"testing"

	"localalias/internal/ast"
	"localalias/internal/source"
	"localalias/internal/types"
)

// FuzzParse feeds arbitrary bytes through the whole front end: the
// parser must never panic, must terminate, must give every numbered
// node of the program it returns (recovered or not) a distinct ID
// below NumNodes, and — when it produces a program that survives
// standard type checking — printing and re-parsing that program must
// succeed (printer/parser coherence).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"fun f() { }",
		"fun f(q: ref int): int { restrict p = q { return *p; } return 0; }",
		"global locks: lock[8];\nfun g(i: int) { confine &locks[i] { spin_lock(&locks[i]); } }",
		"struct dev { l: lock; next: ref dev; }",
		"fun f(l: restrict ref lock) { spin_lock(l); }",
		"fun f() { let x = 1 + ; }",
		"fun f() { while (1) { } }",
		"}{)(*&^%$#@!",
		"fun fun fun",
		"restrict restrict = restrict in restrict",
		"fun f() { confine confine { } }",
		"global g: int[999999999];",
		"fun f() { let x = new new new 0; }",
		"// comment only",
		"/* unterminated",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip()
		}
		var diags source.Diagnostics
		prog := Parse("fuzz.mc", src, &diags)
		if prog == nil {
			t.Fatal("parser must always return a program")
		}
		seen := make(map[ast.NodeID]ast.Node)
		ast.Inspect(prog, func(n ast.Node) bool {
			if nn, ok := n.(ast.Numbered); ok {
				id := nn.NodeID()
				if id < 0 || int(id) >= prog.NumNodes {
					t.Fatalf("%T at %v has ID %d, outside [0, %d)", n, n.Span(), id, prog.NumNodes)
				}
				if prev := seen[id]; prev != nil {
					t.Fatalf("%T at %v and %T at %v share ID %d", prev, prev.Span(), n, n.Span(), id)
				}
				seen[id] = n
			}
			return true
		})
		if diags.HasErrors() {
			return // rejected input: fine
		}
		var tdiags source.Diagnostics
		types.Check(prog, &tdiags)
		if tdiags.HasErrors() {
			return
		}
		// Accepted: the printed form must re-parse and re-check.
		printed := ast.String(prog)
		var rdiags source.Diagnostics
		prog2 := Parse("fuzz2.mc", printed, &rdiags)
		if rdiags.HasErrors() {
			t.Fatalf("printed form does not re-parse:\n%s\n--- printed ---\n%s", rdiags.String(), printed)
		}
		var r2diags source.Diagnostics
		types.Check(prog2, &r2diags)
		if r2diags.HasErrors() {
			t.Fatalf("printed form does not re-check:\n%s\n--- printed ---\n%s", r2diags.String(), printed)
		}
	})
}
