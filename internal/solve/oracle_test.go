package solve

// A brute-force oracle: the least solution of a (conditional-free)
// effect constraint system computed by naive round-robin iteration.
// testing/quick compares the worklist solver and the Figure 5 checker
// against it on random systems.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"localalias/internal/effects"
	"localalias/internal/locs"
	"localalias/internal/source"
)

// bruteForce computes the least solution by iterating the system's
// three inclusion lists until fixpoint, entirely independently of the
// solver's graph machinery.
func bruteForce(sys *effects.System) []map[effects.Atom]bool {
	sets := make([]map[effects.Atom]bool, sys.NumVars())
	for i := range sets {
		sets[i] = map[effects.Atom]bool{}
	}
	changed := true
	add := func(v effects.Var, a effects.Atom) {
		a.Loc = sys.Locs.Find(a.Loc)
		if !sets[v][a] {
			sets[v][a] = true
			changed = true
		}
	}
	for changed {
		changed = false
		for _, ai := range sys.AtomIncls {
			add(ai.V, ai.A)
		}
		for _, vi := range sys.VarIncls {
			for a := range sets[vi.From] {
				add(vi.To, a)
			}
		}
		for _, ic := range sys.InterIncls {
			right := map[locs.Loc]bool{}
			for a := range sets[ic.R] {
				right[sys.Locs.Find(a.Loc)] = true
			}
			for a := range sets[ic.L] {
				if right[sys.Locs.Find(a.Loc)] {
					add(ic.V, a)
				}
			}
		}
	}
	return sets
}

// randomSystem builds a system from a seed: nv vars, nl locations,
// random seeds/edges/intersections, and a few pre-solve unifications.
func randomSystem(seed int64) (*effects.System, *locs.Store) {
	r := rand.New(rand.NewSource(seed))
	ls := locs.NewStore()
	sys := effects.NewSystem(ls)
	nv := 3 + r.Intn(10)
	nl := 2 + r.Intn(6)
	var vars []effects.Var
	for i := 0; i < nv; i++ {
		vars = append(vars, sys.Fresh("v"))
	}
	var rhos []locs.Loc
	for i := 0; i < nl; i++ {
		rhos = append(rhos, ls.Fresh("r"))
	}
	nc := 3 + r.Intn(15)
	for i := 0; i < nc; i++ {
		switch r.Intn(4) {
		case 0: // atom seed
			sys.AddAtom(effects.Atom{
				Kind: effects.Kind(r.Intn(4)),
				Loc:  rhos[r.Intn(nl)],
			}, vars[r.Intn(nv)])
		case 1: // var edge
			sys.AddVarIncl(vars[r.Intn(nv)], vars[r.Intn(nv)])
		case 2: // intersection of two vars
			l, rt := vars[r.Intn(nv)], vars[r.Intn(nv)]
			sys.AddInter(l, rt, vars[r.Intn(nv)])
		case 3: // union feeding a var: {read(ρ)} ∪ ε′ ⊆ ε
			a := effects.Atom{Kind: effects.Read, Loc: rhos[r.Intn(nl)]}
			from, to := vars[r.Intn(nv)], vars[r.Intn(nv)]
			sys.AddAtom(a, to)
			sys.AddVarIncl(from, to)
		}
	}
	// A couple of location unifications before solving.
	for i := 0; i < r.Intn(3); i++ {
		ls.Unify(rhos[r.Intn(nl)], rhos[r.Intn(nl)])
	}
	return sys, ls
}

func TestSolveMatchesBruteForceQuick(t *testing.T) {
	prop := func(seed int64) bool {
		sys, ls := randomSystem(seed)
		want := bruteForce(sys)
		got := Solve(sys)
		for v := 0; v < sys.NumVars(); v++ {
			wantAtoms := map[effects.Atom]bool{}
			for a := range want[v] {
				a.Loc = ls.Find(a.Loc)
				wantAtoms[a] = true
			}
			gotAtoms := got.Atoms(effects.Var(v))
			if len(gotAtoms) != len(wantAtoms) {
				t.Logf("seed %d var %d: got %v want %v", seed, v, gotAtoms, wantAtoms)
				return false
			}
			for _, a := range gotAtoms {
				if !wantAtoms[a] {
					t.Logf("seed %d var %d: spurious %v", seed, v, a)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSatMatchesBruteForceQuick(t *testing.T) {
	// Figure 5's per-location reachability must agree with membership
	// in the brute-force least solution.
	prop := func(seed int64) bool {
		sys, ls := randomSystem(seed)
		want := bruteForce(sys)
		c := NewChecker(sys)
		for v := 0; v < sys.NumVars(); v++ {
			for l := locs.Loc(0); int(l) < ls.Len(); l++ {
				inSolution := false
				for a := range want[v] {
					if ls.Find(a.Loc) == ls.Find(l) {
						inSolution = true
						break
					}
				}
				sat := c.Sat(effects.NotIn{Loc: l, V: effects.Var(v), Site: source.NoSpan})
				if sat == inSolution {
					t.Logf("seed %d: var %d loc %d: Sat=%v but inSolution=%v",
						seed, v, l, sat, inSolution)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestBackwardAgreesWithForwardQuick(t *testing.T) {
	prop := func(seed int64) bool {
		sys, ls := randomSystem(seed)
		c := NewChecker(sys)
		for v := 0; v < sys.NumVars(); v++ {
			for l := locs.Loc(0); int(l) < ls.Len(); l++ {
				ni := effects.NotIn{Loc: l, V: effects.Var(v), Site: source.NoSpan}
				if c.Sat(ni) != c.SatBackward(ni) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
