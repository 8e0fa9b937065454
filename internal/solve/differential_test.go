package solve_test

// Differential tests: the dense-index solver (solve.Solve) against the
// retained map-based reference implementation (solve.SolveReference).
// The two solvers share nothing beyond the constraint graph they walk,
// so agreement over random systems and random full-pipeline programs
// is strong evidence the interner/bitset/CSR rework preserved the
// least-solution semantics.
//
// Solving mutates the system's location store (fired conditionals
// unify locations), so each solver gets its own identically built
// system. The two stores can then disagree on class representatives —
// firing order is not part of the solver contract — so atom sets are
// compared under a store-independent canonical name: the smallest raw
// location of each union-find class.

import (
	"fmt"
	"testing"
	"testing/quick"

	"localalias/internal/core"
	"localalias/internal/drivergen"
	"localalias/internal/effects"
	"localalias/internal/infer"
	"localalias/internal/locs"
	"localalias/internal/progen"
	"localalias/internal/solve"
)

// classKeys maps every location to the smallest raw location in its
// union-find class.
func classKeys(ls *locs.Store) []locs.Loc {
	min := make(map[locs.Loc]locs.Loc, ls.Len())
	for l := 0; l < ls.Len(); l++ {
		r := ls.Find(locs.Loc(l))
		if _, ok := min[r]; !ok {
			min[r] = locs.Loc(l)
		}
	}
	keys := make([]locs.Loc, ls.Len())
	for l := 0; l < ls.Len(); l++ {
		keys[l] = min[ls.Find(locs.Loc(l))]
	}
	return keys
}

// normAtoms rewrites a canonical atom list under classKeys.
func normAtoms(atoms []effects.Atom, keys []locs.Loc) map[effects.Atom]bool {
	out := make(map[effects.Atom]bool, len(atoms))
	for _, a := range atoms {
		out[effects.Atom{Kind: a.Kind, Loc: keys[a.Loc]}] = true
	}
	return out
}

// firedSet maps fired conditionals to their creation indices in
// sys.Conds (the two systems are built identically, so indices line
// up; firing order is allowed to differ).
func firedSet(sys *effects.System, fired []*effects.Cond) map[int]bool {
	idx := make(map[*effects.Cond]int, len(sys.Conds))
	for i, c := range sys.Conds {
		idx[c] = i
	}
	out := make(map[int]bool, len(fired))
	for _, c := range fired {
		out[idx[c]] = true
	}
	return out
}

// compareSolutions checks per-variable atom sets and the fired-cond
// set; both sides carry their own system because each was solved
// independently.
func compareSolutions(t *testing.T, label string,
	denseSys *effects.System, dense *solve.Result,
	refSys *effects.System, ref *solve.RefResult) {
	t.Helper()
	if denseSys.NumVars() != refSys.NumVars() {
		t.Fatalf("%s: system build is nondeterministic: %d vs %d vars",
			label, denseSys.NumVars(), refSys.NumVars())
	}
	dk := classKeys(denseSys.Locs)
	rk := classKeys(refSys.Locs)
	for v := 0; v < denseSys.NumVars(); v++ {
		got := normAtoms(dense.Atoms(effects.Var(v)), dk)
		want := normAtoms(ref.Atoms(effects.Var(v)), rk)
		if len(got) != len(want) {
			t.Fatalf("%s: var %d: dense has %d atoms, reference %d\n dense: %v\n ref:   %v",
				label, v, len(got), len(want), got, want)
		}
		for a := range got {
			if !want[a] {
				t.Fatalf("%s: var %d: dense-only atom %v", label, v, a)
			}
		}
	}
	gotFired := firedSet(denseSys, dense.Fired)
	wantFired := firedSet(refSys, ref.Fired)
	if len(gotFired) != len(wantFired) {
		t.Fatalf("%s: dense fired %d conds, reference %d", label, len(gotFired), len(wantFired))
	}
	for i := range gotFired {
		if !wantFired[i] {
			t.Fatalf("%s: cond %d fired only in the dense solver", label, i)
		}
	}
}

// TestDenseMatchesReferenceQuick cross-checks the solvers on random
// systems with conditional constraints — the machinery (gate rechecks,
// mid-solve unification, lazy re-canonicalization) the brute-force
// oracle in oracle_test.go cannot reach.
func TestDenseMatchesReferenceQuick(t *testing.T) {
	prop := func(seed int64) bool {
		denseSys := solve.RandomCondSystem(seed)
		refSys := solve.RandomCondSystem(seed)
		dense := solve.Solve(denseSys)
		ref := solve.SolveReference(refSys)
		dk := classKeys(denseSys.Locs)
		rk := classKeys(refSys.Locs)
		for v := 0; v < denseSys.NumVars(); v++ {
			got := normAtoms(dense.Atoms(effects.Var(v)), dk)
			want := normAtoms(ref.Atoms(effects.Var(v)), rk)
			if len(got) != len(want) {
				t.Logf("seed %d var %d: dense %v ref %v", seed, v, got, want)
				return false
			}
			for a := range got {
				if !want[a] {
					t.Logf("seed %d var %d: dense-only %v", seed, v, a)
					return false
				}
			}
		}
		gf, wf := firedSet(denseSys, dense.Fired), firedSet(refSys, ref.Fired)
		if len(gf) != len(wf) {
			t.Logf("seed %d: fired %d vs %d", seed, len(gf), len(wf))
			return false
		}
		for i := range gf {
			if !wf[i] {
				t.Logf("seed %d: cond %d fired only dense", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDenseMatchesReferenceShared cross-checks the shared gate: random
// systems in which one shared variable is the implicit right operand
// of many intersections, with conditionals that unify locations and
// share them late. The dense solver reads the shared variable by
// membership and holds gate atoms back on waiting lists; the reference
// reads it through ordinary edges. Both must reach the same least
// solution and fire the same conditionals.
func TestDenseMatchesReferenceShared(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		denseSys := solve.RandomSharedSystem(seed)
		refSys := solve.RandomSharedSystem(seed)
		dense := solve.Solve(denseSys)
		ref := solve.SolveReference(refSys)
		compareSolutions(t, fmt.Sprintf("shared seed %d", seed), denseSys, dense, refSys, ref)
		dense.Release()
	}
}

// TestDenseMatchesReferenceProgen runs both solvers over the full
// inference pipeline on random well-typed programs (restrict-let
// inference on, so the systems carry the paper's conditional
// constraints) and requires identical least solutions.
func TestDenseMatchesReferenceProgen(t *testing.T) {
	n := int64(200)
	if testing.Short() {
		n = 40
	}
	solveSys := func(seed int64) (*effects.System, *infer.Result) {
		src := progen.Generate(seed)
		mod, err := core.LoadModule("p.mc", src)
		if err != nil {
			t.Fatalf("seed %d: progen program fails to load: %v", seed, err)
		}
		res := infer.Run(mod.TInfo, mod.Diags, infer.Options{InferRestrictLets: true})
		return res.Sys, res
	}
	for seed := int64(0); seed < n; seed++ {
		denseSys, _ := solveSys(seed)
		refSys, _ := solveSys(seed)
		dense := solve.Solve(denseSys)
		ref := solve.SolveReference(refSys)
		compareSolutions(t, fmt.Sprintf("progen seed %d", seed), denseSys, dense, refSys, ref)
	}
}

// TestSolveStatsDeterministic solves a fixed corpus module twice from
// scratch and requires identical, nonzero work counters: atom IDs are
// assigned in first-intern order and propagation follows the CSR edge
// layout, so the counts must not wobble between runs.
func TestSolveStatsDeterministic(t *testing.T) {
	var spec *drivergen.ModuleSpec
	for _, m := range drivergen.Corpus() {
		if m.Name == "ide_tape" {
			spec = m
		}
	}
	if spec == nil {
		t.Fatal("no ide_tape module in the corpus")
	}
	src := spec.Source()
	run := func() solve.Stats {
		mod, err := core.LoadModule("ide_tape.mc", src)
		if err != nil {
			t.Fatal(err)
		}
		lr, err := mod.AnalyzeLocking(core.LockingOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return lr.SolveStats
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("solver stats differ between identical runs:\n first:  %v\n second: %v", first, second)
	}
	if first.Vars == 0 || first.Atoms == 0 || first.AtomsPropagated == 0 {
		t.Fatalf("implausibly empty stats: %v", first)
	}
}
