package solve

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"localalias/internal/effects"
	"localalias/internal/faults"
	"localalias/internal/locs"
	"localalias/internal/obs"
	"localalias/internal/source"
)

func loc(ls *locs.Store, n string) locs.Loc { return ls.Fresh(n) }

func atom(k effects.Kind, l locs.Loc) effects.Atom { return effects.Atom{Kind: k, Loc: l} }

// chain builds ρ ∈ ε0 ⊆ ε1 ⊆ ... ⊆ εn and returns the vars.
func chain(s *effects.System, ls *locs.Store, n int) (locs.Loc, []effects.Var) {
	rho := ls.Fresh("rho")
	vars := make([]effects.Var, n)
	for i := range vars {
		vars[i] = s.Fresh("e")
	}
	s.AddAtom(atom(effects.Read, rho), vars[0])
	for i := 1; i < n; i++ {
		s.AddVarIncl(vars[i-1], vars[i])
	}
	return rho, vars
}

func TestCheckSatReachable(t *testing.T) {
	ls := locs.NewStore()
	s := effects.NewSystem(ls)
	rho, vars := chain(s, ls, 4)
	s.AddNotIn(rho, vars[3], source.NoSpan, effects.Reason{Why: "test"})
	vs := Check(s)
	if len(vs) != 1 {
		t.Fatalf("want 1 violation, got %v", vs)
	}
}

func TestCheckSatUnreachable(t *testing.T) {
	ls := locs.NewStore()
	s := effects.NewSystem(ls)
	rho, _ := chain(s, ls, 4)
	other := s.Fresh("island")
	s.AddNotIn(rho, other, source.NoSpan, effects.Reason{Why: "test"})
	if vs := Check(s); len(vs) != 0 {
		t.Fatalf("want no violations, got %v", vs)
	}
}

func TestCheckSatIntersectionGate(t *testing.T) {
	// (eL ∩ eR) ⊆ out: rho reaches out only if it reaches both sides.
	ls := locs.NewStore()
	s := effects.NewSystem(ls)
	rho := ls.Fresh("rho")
	eL := s.Fresh("L")
	eR := s.Fresh("R")
	out := s.Fresh("out")
	s.AddInter(eL, eR, out)
	s.AddAtom(atom(effects.Write, rho), eL)
	// Only the left side sees rho: the Count(I)==2 condition of
	// Figure 5 must block it.
	s.AddNotIn(rho, out, source.NoSpan, effects.Reason{Why: "blocked"})
	if vs := Check(s); len(vs) != 0 {
		t.Fatalf("intersection must gate: %v", vs)
	}
	// Now let the right side see rho too.
	s.AddAtom(atom(effects.LocAtom, rho), eR)
	s2 := Check(s)
	if len(s2) != 1 {
		t.Fatalf("both sides reached: want violation, got %v", s2)
	}
}

func TestCheckSatDiamond(t *testing.T) {
	// rho flows into out through two paths; still one violation.
	ls := locs.NewStore()
	s := effects.NewSystem(ls)
	rho := ls.Fresh("rho")
	a, b, out := s.Fresh("a"), s.Fresh("b"), s.Fresh("out")
	src := s.Fresh("src")
	s.AddAtom(atom(effects.Read, rho), src)
	s.AddVarIncl(src, a)
	s.AddVarIncl(src, b)
	s.AddVarIncl(a, out)
	s.AddVarIncl(b, out)
	s.AddNotIn(rho, out, source.NoSpan, effects.Reason{Why: "diamond"})
	if vs := Check(s); len(vs) != 1 {
		t.Fatalf("want 1 violation, got %v", vs)
	}
}

func TestCheckSatRespectsUnification(t *testing.T) {
	ls := locs.NewStore()
	s := effects.NewSystem(ls)
	rho1 := ls.Fresh("rho1")
	rho2 := ls.Fresh("rho2")
	e := s.Fresh("e")
	s.AddAtom(atom(effects.Read, rho2), e)
	s.AddNotIn(rho1, e, source.NoSpan, effects.Reason{Why: "pre-unify"})
	if vs := Check(s); len(vs) != 0 {
		t.Fatal("distinct locations must not collide")
	}
	ls.Unify(rho1, rho2)
	if vs := Check(s); len(vs) != 1 {
		t.Fatal("after unification the check must fail")
	}
}

func TestCheckerReusableManyQueries(t *testing.T) {
	ls := locs.NewStore()
	s := effects.NewSystem(ls)
	rho, vars := chain(s, ls, 10)
	other := ls.Fresh("other")
	s.AddAtom(atom(effects.Read, other), vars[5])
	c := NewChecker(s)
	for i := 0; i < 100; i++ {
		if c.Sat(effects.NotIn{Loc: rho, V: vars[9]}) {
			t.Fatal("rho must reach the chain end")
		}
		if !c.Sat(effects.NotIn{Loc: other, V: vars[2]}) {
			t.Fatal("other enters at 5; must not reach 2")
		}
		if c.Sat(effects.NotIn{Loc: other, V: vars[7]}) {
			t.Fatal("other must reach 7")
		}
	}
}

func TestSolveLeastSolution(t *testing.T) {
	ls := locs.NewStore()
	s := effects.NewSystem(ls)
	rho, vars := chain(s, ls, 3)
	r := Solve(s)
	for _, v := range vars {
		if !r.ContainsLoc(v, rho) {
			t.Fatalf("rho must be in every chain var")
		}
	}
	as := r.Atoms(vars[2])
	if len(as) != 1 || as[0].Kind != effects.Read {
		t.Fatalf("atoms: %v", as)
	}
}

func TestSolveIntersectionKinds(t *testing.T) {
	// (Down): effect atoms filtered by live locations, with bare
	// location atoms not polluting the output.
	ls := locs.NewStore()
	s := effects.NewSystem(ls)
	kept := ls.Fresh("kept")
	dropped := ls.Fresh("dropped")
	body := s.Fresh("body")
	live := s.Fresh("live")
	out := s.Fresh("out")
	s.AddAtom(atom(effects.Write, kept), body)
	s.AddAtom(atom(effects.Read, dropped), body)
	s.AddAtom(atom(effects.LocAtom, kept), live)
	s.AddInter(body, live, out)
	r := Solve(s)
	if !r.ContainsAtom(out, atom(effects.Write, kept)) {
		t.Error("write(kept) must survive (Down)")
	}
	if r.ContainsLoc(out, dropped) {
		t.Error("read(dropped) must be removed by (Down)")
	}
	if r.ContainsAtom(out, atom(effects.LocAtom, kept)) {
		t.Error("locs(Γ,τ) atoms must not leak into the effect")
	}
}

func TestSolveViolations(t *testing.T) {
	ls := locs.NewStore()
	s := effects.NewSystem(ls)
	rho, vars := chain(s, ls, 2)
	s.AddNotIn(rho, vars[1], source.NoSpan, effects.Reason{Why: "hit"})
	s.AddNotIn(ls.Fresh("free"), vars[1], source.NoSpan, effects.Reason{Why: "miss"})
	r := Solve(s)
	vs := r.Violations()
	if len(vs) != 1 || vs[0].What != "hit" {
		t.Fatalf("violations: %v", vs)
	}
}

func TestSolveCondLocInFires(t *testing.T) {
	// rho ∈ e ⇒ unify(a, b).
	ls := locs.NewStore()
	s := effects.NewSystem(ls)
	rho := ls.Fresh("rho")
	a, b := ls.Fresh("a"), ls.Fresh("b")
	e := s.Fresh("e")
	s.AddAtom(atom(effects.Write, rho), e)
	s.AddCond(&effects.Cond{
		Trigger: effects.LocIn{Loc: rho, V: e},
		Actions: []effects.Action{effects.ActUnify{A: a, B: b}},
		Reason:  effects.Reason{Why: "rho used"},
	})
	r := Solve(s)
	if len(r.Fired) != 1 {
		t.Fatalf("cond must fire once, fired %d", len(r.Fired))
	}
	if !ls.Same(a, b) {
		t.Error("action must unify a and b")
	}
}

func TestSolveCondNotFired(t *testing.T) {
	ls := locs.NewStore()
	s := effects.NewSystem(ls)
	rho := ls.Fresh("rho")
	other := ls.Fresh("other")
	a, b := ls.Fresh("a"), ls.Fresh("b")
	e := s.Fresh("e")
	s.AddAtom(atom(effects.Write, other), e)
	s.AddCond(&effects.Cond{
		Trigger: effects.LocIn{Loc: rho, V: e},
		Actions: []effects.Action{effects.ActUnify{A: a, B: b}},
	})
	r := Solve(s)
	if len(r.Fired) != 0 || ls.Same(a, b) {
		t.Error("condition must not fire")
	}
}

func TestSolveCondCascade(t *testing.T) {
	// Firing one conditional unifies locations, which makes a second
	// conditional's trigger true: the paper's worklist cascade.
	ls := locs.NewStore()
	s := effects.NewSystem(ls)
	rho1 := ls.Fresh("rho1")
	rho2 := ls.Fresh("rho2")
	x, y := ls.Fresh("x"), ls.Fresh("y")
	e := s.Fresh("e")
	s.AddAtom(atom(effects.Read, rho1), e)
	// rho1 ∈ e ⇒ unify(rho1, rho2)
	s.AddCond(&effects.Cond{
		Trigger: effects.LocIn{Loc: rho1, V: e},
		Actions: []effects.Action{effects.ActUnify{A: rho1, B: rho2}},
	})
	// rho2 ∈ e ⇒ unify(x, y) — true only after the first fires.
	s.AddCond(&effects.Cond{
		Trigger: effects.LocIn{Loc: rho2, V: e},
		Actions: []effects.Action{effects.ActUnify{A: x, B: y}},
	})
	r := Solve(s)
	if len(r.Fired) != 2 {
		t.Fatalf("cascade: want 2 fired, got %d", len(r.Fired))
	}
	if !ls.Same(x, y) {
		t.Error("second condition's action must run")
	}
}

func TestSolveCondAtomInAndAddAtom(t *testing.T) {
	// write(rho') ∈ e ⇒ {write(rho)} ⊆ pi (the conditional restrict
	// effect).
	ls := locs.NewStore()
	s := effects.NewSystem(ls)
	rho := ls.Fresh("rho")
	rhoP := ls.Fresh("rho'")
	e := s.Fresh("e")
	pi := s.Fresh("pi")
	s.AddAtom(atom(effects.Write, rhoP), e)
	s.AddCond(&effects.Cond{
		Trigger: effects.AtomIn{Kind: effects.Write, Loc: rhoP, V: e},
		Actions: []effects.Action{effects.ActAddAtom{A: atom(effects.Write, rho), V: pi}},
	})
	// A read must NOT trigger the write conditional.
	s.AddCond(&effects.Cond{
		Trigger: effects.AtomIn{Kind: effects.Alloc, Loc: rhoP, V: e},
		Actions: []effects.Action{effects.ActAddAtom{A: atom(effects.Alloc, rho), V: pi}},
	})
	r := Solve(s)
	if !r.ContainsAtom(pi, atom(effects.Write, rho)) {
		t.Error("write relay must fire")
	}
	if r.ContainsAtom(pi, atom(effects.Alloc, rho)) {
		t.Error("alloc relay must not fire")
	}
}

func TestSolveCondKindIn(t *testing.T) {
	ls := locs.NewStore()
	s := effects.NewSystem(ls)
	rho := ls.Fresh("rho")
	a, b := ls.Fresh("a"), ls.Fresh("b")
	e := s.Fresh("e")
	s.AddAtom(atom(effects.Alloc, rho), e)
	s.AddCond(&effects.Cond{
		Trigger: effects.KindIn{Kind: effects.Alloc, V: e},
		Actions: []effects.Action{effects.ActUnify{A: a, B: b}},
	})
	r := Solve(s)
	if len(r.Fired) != 1 || !ls.Same(a, b) {
		t.Error("any alloc atom must trigger KindIn")
	}
}

func TestSolveCondPairIn(t *testing.T) {
	// read(r) ∈ e1 ∧ write(r) ∈ e2 ⇒ unify — the referential
	// transparency premise.
	ls := locs.NewStore()
	s := effects.NewSystem(ls)
	r1 := ls.Fresh("r1")
	r2 := ls.Fresh("r2")
	a, b := ls.Fresh("a"), ls.Fresh("b")
	e1, e2 := s.Fresh("e1"), s.Fresh("e2")
	s.AddAtom(atom(effects.Read, r1), e1)
	s.AddAtom(atom(effects.Write, r2), e2) // different loc: no fire
	s.AddCond(&effects.Cond{
		Trigger: effects.PairIn{KindA: effects.Read, VA: e1, KindB: effects.Write, VB: e2},
		Actions: []effects.Action{effects.ActUnify{A: a, B: b}},
	})
	r := Solve(s)
	if len(r.Fired) != 0 {
		t.Fatal("different locations must not pair")
	}

	// Same locations (via unification) must fire on recheck.
	ls2 := locs.NewStore()
	s2 := effects.NewSystem(ls2)
	p1 := ls2.Fresh("p1")
	p2 := ls2.Fresh("p2")
	c, d := ls2.Fresh("c"), ls2.Fresh("d")
	f1, f2 := s2.Fresh("f1"), s2.Fresh("f2")
	s2.AddAtom(atom(effects.Read, p1), f1)
	s2.AddAtom(atom(effects.Write, p1), f2)
	s2.AddCond(&effects.Cond{
		Trigger: effects.PairIn{KindA: effects.Read, VA: f1, KindB: effects.Write, VB: f2},
		Actions: []effects.Action{effects.ActUnify{A: c, B: d}},
	})
	_ = p2
	r2v := Solve(s2)
	if len(r2v.Fired) != 1 || !ls2.Same(c, d) {
		t.Error("matching read/write pair must fire")
	}
}

func TestSolveCondActIncl(t *testing.T) {
	// trigger ⇒ (from ⊆ to): existing and future atoms both flow.
	ls := locs.NewStore()
	s := effects.NewSystem(ls)
	rho := ls.Fresh("rho")
	x := ls.Fresh("x")
	from, to, e := s.Fresh("from"), s.Fresh("to"), s.Fresh("e")
	s.AddAtom(atom(effects.Read, x), from)
	s.AddAtom(atom(effects.Write, rho), e)
	s.AddCond(&effects.Cond{
		Trigger: effects.LocIn{Loc: rho, V: e},
		Actions: []effects.Action{effects.ActIncl{From: from, To: to}},
	})
	r := Solve(s)
	if !r.ContainsAtom(to, atom(effects.Read, x)) {
		t.Error("ActIncl must copy existing atoms")
	}
}

func TestSolveUnifyMergesAtomsAcrossSets(t *testing.T) {
	// After unify(r1, r2), an intersection gated on r2 must pass an
	// atom over r1.
	ls := locs.NewStore()
	s := effects.NewSystem(ls)
	r1 := ls.Fresh("r1")
	r2 := ls.Fresh("r2")
	trig := ls.Fresh("trig")
	body, live, out, e := s.Fresh("body"), s.Fresh("live"), s.Fresh("out"), s.Fresh("e")
	s.AddAtom(atom(effects.Write, r1), body)
	s.AddAtom(atom(effects.LocAtom, r2), live)
	s.AddInter(body, live, out)
	s.AddAtom(atom(effects.Read, trig), e)
	s.AddCond(&effects.Cond{
		Trigger: effects.LocIn{Loc: trig, V: e},
		Actions: []effects.Action{effects.ActUnify{A: r1, B: r2}},
	})
	r := Solve(s)
	if !r.ContainsLoc(out, r1) {
		t.Error("post-unification the gate must open")
	}
}

// TestDownAdmitsSharedLocations: a (Down) gate whose right operand
// lacks the globals admits a body effect on a location in the shared
// variable, including one that becomes shared only late in the solve,
// after the effect was held back at the gate: through a unification
// with a global (either orientation) or an atom added to the shared
// variable. The Checker and the reference solver read the shared
// variable through ordinary edges and must agree.
func TestDownAdmitsSharedLocations(t *testing.T) {
	cases := []struct {
		name string
		late func(a, g locs.Loc, shared effects.Var) effects.Action
	}{
		{"already shared", nil},
		{"unify local into global", func(a, g locs.Loc, _ effects.Var) effects.Action {
			return effects.ActUnify{A: a, B: g}
		}},
		{"unify global into local", func(a, g locs.Loc, _ effects.Var) effects.Action {
			return effects.ActUnify{A: g, B: a}
		}},
		{"added to the shared variable", func(a, _ locs.Loc, shared effects.Var) effects.Action {
			return effects.ActAddAtom{A: atom(effects.LocAtom, a), V: shared}
		}},
	}
	for _, c := range cases {
		build := func() (*effects.System, locs.Loc, locs.Loc, effects.Var) {
			ls := locs.NewStore()
			s := effects.NewSystem(ls)
			g, a, other := ls.Fresh("g"), ls.Fresh("a"), ls.Fresh("other")
			body, keep, eff := s.Fresh("body"), s.Fresh("keep"), s.Fresh("eff")
			v1, v2 := s.Fresh("v1"), s.Fresh("v2")
			// The shared variable is made last so that the solver
			// propagates its seed first: g is shared before any body
			// effect reaches the gate.
			envG := s.Fresh("Γ(globals)")
			s.Shared = envG
			s.AddAtom(atom(effects.LocAtom, g), envG)
			s.AddAtom(atom(effects.LocAtom, other), keep)
			s.AddInter(body, keep, eff)
			if c.late == nil {
				s.AddAtom(atom(effects.Write, g), body)
				return s, g, g, eff
			}
			// The write on a reaches the gate first; the trigger sits
			// two hops further on, so the action runs after the gate
			// has held write(a) back.
			s.AddAtom(atom(effects.Write, a), body)
			s.AddVarIncl(body, v1)
			s.AddVarIncl(v1, v2)
			s.AddCond(&effects.Cond{
				Trigger: effects.AtomIn{Kind: effects.Write, Loc: a, V: v2},
				Actions: []effects.Action{c.late(a, g, envG)},
			})
			return s, g, a, eff
		}
		s, g, a, eff := build()
		r := Solve(s)
		if !r.ContainsAtom(eff, atom(effects.Write, a)) {
			t.Errorf("%s: (Down) dropped write(%s) on a shared location", c.name, s.Locs.Name(a))
		}
		if r.ContainsAtom(eff, atom(effects.LocAtom, g)) {
			t.Errorf("%s: the shared variable's own atoms leaked through the gate", c.name)
		}
		refSys, _, _, refEff := build()
		ref := SolveReference(refSys)
		if got, want := fmt.Sprint(r.Atoms(eff)), fmt.Sprint(ref.Atoms(refEff)); got != want {
			t.Errorf("%s: dense %s, reference %s", c.name, got, want)
		}
		if c.late == nil {
			chkSys, g, _, chkEff := build()
			if NewChecker(chkSys).Sat(effects.NotIn{Loc: g, V: chkEff}) {
				t.Errorf("%s: the Checker does not see the global through the shared edge", c.name)
			}
		}
	}
}

func TestSolveBackwardPrefilter(t *testing.T) {
	ls := locs.NewStore()
	s := effects.NewSystem(ls)
	rho, vars := chain(s, ls, 5)
	island := s.Fresh("island")
	c := NewChecker(s)
	reach := c.ReachableLocs(vars[4])
	if !reach.Has(int(ls.Find(rho))) {
		t.Error("backward search must find rho behind the chain")
	}
	if got := c.ReachableLocs(island); !got.Empty() {
		t.Errorf("island has no sources, got %d locs", got.Len())
	}
	if !c.SatBackward(effects.NotIn{Loc: rho, V: island}) {
		t.Error("SatBackward must succeed via prefilter")
	}
	if c.SatBackward(effects.NotIn{Loc: rho, V: vars[4]}) {
		t.Error("SatBackward must still detect real violations")
	}
}

func TestSolveDeterministic(t *testing.T) {
	build := func() (*locs.Store, *effects.System, []effects.Var) {
		ls := locs.NewStore()
		s := effects.NewSystem(ls)
		var vars []effects.Var
		for i := 0; i < 20; i++ {
			vars = append(vars, s.Fresh("v"))
		}
		var rs []locs.Loc
		for i := 0; i < 10; i++ {
			rs = append(rs, ls.Fresh("r"))
		}
		for i := 0; i < 10; i++ {
			s.AddAtom(atom(effects.Kind(i%4), rs[i]), vars[i])
			s.AddVarIncl(vars[i], vars[(i*7)%20])
			s.AddVarIncl(vars[i], vars[10+i%10])
		}
		return ls, s, vars
	}
	_, s1, v1 := build()
	_, s2, v2 := build()
	r1 := Solve(s1)
	r2 := Solve(s2)
	for i := range v1 {
		a1 := r1.Atoms(v1[i])
		a2 := r2.Atoms(v2[i])
		if len(a1) != len(a2) {
			t.Fatalf("var %d: nondeterministic solution sizes %d vs %d", i, len(a1), len(a2))
		}
		for j := range a1 {
			if a1[j] != a2[j] {
				t.Fatalf("var %d atom %d: %v vs %v", i, j, a1[j], a2[j])
			}
		}
	}
}

// RandomCondSystem builds a system with conditional constraints from a
// seed; calling it twice with the same seed produces identical
// systems over independent stores. It is exported only to this
// package's tests, for the differential tests in package solve_test.
func RandomCondSystem(seed int64) *effects.System {
	r := rand.New(rand.NewSource(seed))
	ls := locs.NewStore()
	sys := effects.NewSystem(ls)
	buildRandomCondInto(sys, r)
	return sys
}

// randomClusterSystem builds k independent random constraint clusters
// in one system: disjoint variables and locations per cluster, so the
// propagation graph has several connected components.
func randomClusterSystem(seed int64, k int) *effects.System {
	sys := effects.NewSystem(locs.NewStore())
	for i := 0; i < k; i++ {
		buildRandomCondInto(sys, rand.New(rand.NewSource(seed*1009+int64(i))))
	}
	return sys
}

// buildRandomCondInto adds one random constraint cluster — fresh
// variables, fresh locations, conditionals over both — to sys.
// randomClusterSystem calls it several times into one system.
func buildRandomCondInto(sys *effects.System, r *rand.Rand) {
	ls := sys.Locs
	nv := 3 + r.Intn(10)
	nl := 3 + r.Intn(6)
	var vars []effects.Var
	for i := 0; i < nv; i++ {
		vars = append(vars, sys.Fresh("v"))
	}
	var rhos []locs.Loc
	for i := 0; i < nl; i++ {
		rhos = append(rhos, ls.Fresh("r"))
	}
	rho := func() locs.Loc { return rhos[r.Intn(nl)] }
	v := func() effects.Var { return vars[r.Intn(nv)] }
	kind := func() effects.Kind { return effects.Kind(r.Intn(4)) }
	atom := func() effects.Atom { return effects.Atom{Kind: kind(), Loc: rho()} }

	nc := 4 + r.Intn(16)
	for i := 0; i < nc; i++ {
		switch r.Intn(4) {
		case 0:
			sys.AddAtom(atom(), v())
		case 1:
			sys.AddVarIncl(v(), v())
		case 2:
			l, rt := v(), v()
			sys.AddInter(l, rt, v())
		case 3: // {a} ∪ ε′ ⊆ ε
			a, from, to := atom(), v(), v()
			sys.AddAtom(a, to)
			sys.AddVarIncl(from, to)
		}
	}
	ncond := 1 + r.Intn(5)
	for i := 0; i < ncond; i++ {
		var trig effects.Trigger
		switch r.Intn(4) {
		case 0:
			trig = effects.LocIn{Loc: rho(), V: v()}
		case 1:
			trig = effects.AtomIn{Kind: kind(), Loc: rho(), V: v()}
		case 2:
			trig = effects.KindIn{Kind: kind(), V: v()}
		case 3:
			trig = effects.PairIn{KindA: kind(), VA: v(), KindB: kind(), VB: v()}
		}
		var acts []effects.Action
		for j, na := 0, 1+r.Intn(2); j < na; j++ {
			switch r.Intn(3) {
			case 0:
				acts = append(acts, effects.ActUnify{A: rho(), B: rho()})
			case 1:
				acts = append(acts, effects.ActIncl{From: v(), To: v()})
			case 2:
				acts = append(acts, effects.ActAddAtom{A: atom(), V: v()})
			}
		}
		sys.AddCond(&effects.Cond{Trigger: trig, Actions: acts,
			Reason: effects.Reason{Why: fmt.Sprintf("cond %d", i)}})
	}
	// A couple of pre-solve unifications.
	for i := 0; i < r.Intn(3); i++ {
		ls.Unify(rho(), rho())
	}
}

// RandomSharedSystem is RandomCondSystem plus a shared variable
// (effects.System.Shared) that is the implicit right operand of many
// added intersections, with conditionals that share locations late:
// unifications, atoms and inclusions added to the shared variable.
// Like RandomCondSystem it is exported only to this package's tests.
func RandomSharedSystem(seed int64) *effects.System {
	r := rand.New(rand.NewSource(seed))
	sys := effects.NewSystem(locs.NewStore())
	buildRandomCondInto(sys, r)
	nv, nl := sys.NumVars(), sys.Locs.Len()
	v := func() effects.Var { return effects.Var(r.Intn(nv)) }
	rho := func() locs.Loc { return locs.Loc(r.Intn(nl)) }
	sys.Shared = v()
	for i, n := 0, 4+r.Intn(12); i < n; i++ {
		right := v()
		if r.Intn(4) == 0 {
			// An atom right operand, hoisted into a fresh variable
			// as Figure 4b does.
			right = sys.Fresh("hoist")
			sys.AddAtom(effects.Atom{Kind: effects.LocAtom, Loc: rho()}, right)
		}
		l := v()
		sys.AddInter(l, right, v())
	}
	for i, n := 0, 1+r.Intn(2); i < n; i++ {
		sys.AddAtom(effects.Atom{Kind: effects.LocAtom, Loc: rho()}, sys.Shared)
	}
	for i, n := 0, 2+r.Intn(4); i < n; i++ {
		var act effects.Action
		switch r.Intn(4) {
		case 0, 1:
			act = effects.ActUnify{A: rho(), B: rho()}
		case 2:
			act = effects.ActAddAtom{A: effects.Atom{Kind: effects.LocAtom, Loc: rho()}, V: sys.Shared}
		case 3:
			act = effects.ActIncl{From: v(), To: sys.Shared}
		}
		sys.AddCond(&effects.Cond{
			Trigger: effects.KindIn{Kind: effects.Kind(r.Intn(4)), V: v()},
			Actions: []effects.Action{act},
			Reason:  effects.Reason{Why: fmt.Sprintf("shared cond %d", i)},
		})
	}
	return sys
}

// TestPooledSolveReuse runs many solves back to back with Release, so
// every pooled buffer is recycled, and requires each round to
// reproduce the first round's answers — stale state leaking through
// the pools would show up immediately.
func TestPooledSolveReuse(t *testing.T) {
	snapshot := func() []string {
		sys := randomClusterSystem(11, 4)
		res := Solve(sys)
		defer res.Release()
		var out []string
		for v := 0; v < sys.NumVars(); v++ {
			out = append(out, fmt.Sprint(res.Atoms(effects.Var(v))))
		}
		out = append(out, res.Stats.String())

		// Interleave pooled solves of different systems, one with a
		// shared variable, so the scratch (waiting lists included)
		// comes back dirty.
		for _, sys := range []*effects.System{randomClusterSystem(13, 2), RandomSharedSystem(17)} {
			other := Solve(sys)
			out = append(out, other.Stats.String())
			other.Release()
		}
		return out
	}
	want := snapshot()
	for i := 0; i < 10; i++ {
		if got := snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d diverged from round 0:\n got:  %v\n want: %v", i, got, want)
		}
	}
}

// TestResultReleasePanics pins the use-after-Release contract.
func TestResultReleasePanics(t *testing.T) {
	res := Solve(RandomCondSystem(5))
	res.Release()
	res.Release() // double release is a no-op
	defer func() {
		if recover() == nil {
			t.Fatal("accessor after Release did not panic")
		}
	}()
	res.Atoms(0)
}

// expiringCtx is a context whose Err turns non-nil after a fixed
// number of calls, so a test decides which deadline check fires.
type expiringCtx struct {
	context.Context
	calls, live int
}

func (c *expiringCtx) Err() error {
	if c.calls++; c.calls > c.live {
		return context.DeadlineExceeded
	}
	return nil
}

// TestParallelDeadlineAbort proves a deadline expiring in the middle
// of propagation surfaces as a KindTimeout failure, not as a hang or
// a completed solve. The system needs more than deadlineStride
// insertions and fires no conditional, so the only check that can
// see the expired context is the drain loop's periodic one: the
// context stays live for run's check on entry and expires before the
// first in-drain check.
func TestParallelDeadlineAbort(t *testing.T) {
	ls := locs.NewStore()
	sys := effects.NewSystem(ls)
	const nlocs, nvars = 64, 100
	vars := make([]effects.Var, nvars)
	for i := range vars {
		vars[i] = sys.Fresh("e")
		if i > 0 {
			sys.AddVarIncl(vars[i-1], vars[i])
		}
	}
	for i := 0; i < nlocs; i++ {
		sys.AddAtom(atom(effects.Read, ls.Fresh("r")), vars[0])
	}
	if nlocs*nvars <= deadlineStride {
		t.Fatalf("system too small: %d insertions never reach a drain check", nlocs*nvars)
	}
	ctx := &expiringCtx{Context: context.Background(), live: 1}
	fail := faults.Run("m", faults.NewTrace(), func() error {
		SolveCtx(ctx, sys)
		return nil
	})
	if fail == nil {
		t.Fatal("expected a timeout failure, got a completed solve")
	}
	if fail.Kind != obs.KindTimeout {
		t.Fatalf("expected %s, got %s (%s)", obs.KindTimeout, fail.Kind, fail.Message)
	}
}
