package solve

import (
	"sort"

	"localalias/internal/effects"
	"localalias/internal/locs"
)

// This file retains the original map-based solver as a differential
// oracle for the dense-index solver in solve.go. It represents every
// effect-variable set as map[effects.Atom]bool and every intersection
// node as a map pair, exactly as the solver shipped before the dense
// rework — slower, but structurally independent of the interner,
// bitset, and CSR machinery it cross-checks. Tests run both solvers
// on identical systems and require identical least solutions and
// firing sequences (TestDenseMatchesReference*, and the progen-based
// differential test).

// RefResult is the least solution computed by SolveReference.
type RefResult struct {
	sys  *effects.System
	ls   *locs.Store
	sets []map[effects.Atom]bool

	// Fired lists fired conditionals in firing order.
	Fired []*effects.Cond
}

// Atoms returns the canonical atoms of v's solution, sorted (same
// contract as Result.Atoms).
func (r *RefResult) Atoms(v effects.Var) []effects.Atom {
	var out []effects.Atom
	seen := make(map[effects.Atom]bool)
	for a := range r.sets[v] {
		ca := effects.Atom{Kind: a.Kind, Loc: r.ls.Find(a.Loc)}
		if !seen[ca] {
			seen[ca] = true
			out = append(out, ca)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Loc != out[j].Loc {
			return out[i].Loc < out[j].Loc
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

type refSolver struct {
	g   *graph
	ls  *locs.Store
	res *RefResult

	// Dynamic graph state (conditionals add edges and atoms).
	extra [][]target
	sets  []map[effects.Atom]bool
	left  []map[effects.Atom]bool
	right []map[locs.Loc]bool

	queue []refQitem

	pending  map[*effects.Cond]bool
	condList []*effects.Cond
	watch    map[effects.Var][]*effects.Cond

	unified bool // set by observeUnify
}

// observeUnify is the per-call observer passed to locs.Store.Absorb,
// as the dense solver does, so a reference solve sees exactly its own
// unifications and leaves nothing registered on the shared store.
func (s *refSolver) observeUnify(winner, loser locs.Loc) { s.unified = true }

type refQitem struct {
	v effects.Var
	a effects.Atom
}

// SolveReference computes the least solution of sys with the retained
// map-based worklist algorithm. It is the reference implementation
// for differential testing; production callers use Solve.
func SolveReference(sys *effects.System) *RefResult {
	g := newGraph(sys, new(scratch), true)
	s := &refSolver{g: g, ls: sys.Locs}
	s.res = &RefResult{sys: sys, ls: sys.Locs}
	s.sets = make([]map[effects.Atom]bool, g.nvar)
	for i := range s.sets {
		s.sets[i] = make(map[effects.Atom]bool)
	}
	s.left = make([]map[effects.Atom]bool, len(g.inter))
	s.right = make([]map[locs.Loc]bool, len(g.inter))
	for i := range g.inter {
		s.left[i] = make(map[effects.Atom]bool)
		s.right[i] = make(map[locs.Loc]bool)
	}
	s.pending = make(map[*effects.Cond]bool, len(sys.Conds))
	s.condList = sys.Conds
	s.watch = make(map[effects.Var][]*effects.Cond)
	for _, c := range sys.Conds {
		s.pending[c] = true
		forTriggerVars(c.Trigger, func(v effects.Var) {
			s.watch[v] = append(s.watch[v], c)
		})
	}

	for v := range g.seeds {
		for _, a := range g.seeds[v] {
			s.insert(effects.Var(v), a)
		}
	}

	for {
		s.drain()
		if s.unified {
			s.unified = false
			s.recanonicalize()
			s.recheckConds()
			if len(s.queue) > 0 || s.unified {
				continue
			}
		}
		break
	}

	s.res.sets = s.sets
	return s.res
}

func (s *refSolver) drain() {
	for len(s.queue) > 0 {
		it := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.propagate(it.v, it.a)
	}
}

func (s *refSolver) insert(v effects.Var, a effects.Atom) {
	a.Loc = s.ls.Find(a.Loc)
	if s.sets[v][a] {
		return
	}
	s.sets[v][a] = true
	s.queue = append(s.queue, refQitem{v: v, a: a})
}

func (s *refSolver) propagate(v effects.Var, a effects.Atom) {
	for _, t := range s.g.outEdges(int32(v)) {
		s.follow(t, a)
	}
	if s.extra != nil {
		for _, t := range s.extra[v] {
			s.follow(t, a)
		}
	}
	s.checkTriggersFor(v, a)
}

func (s *refSolver) follow(t target, a effects.Atom) {
	switch t.kind {
	case toVar:
		s.insert(effects.Var(t.idx), a)
	case toLeft:
		s.arriveLeft(t.idx, a)
	case toRight:
		s.arriveRight(t.idx, a)
	}
}

func (s *refSolver) arriveLeft(i int32, a effects.Atom) {
	a.Loc = s.ls.Find(a.Loc)
	if s.left[i][a] {
		return
	}
	s.left[i][a] = true
	if s.right[i][a.Loc] {
		s.insert(s.g.inter[i].Out, a)
	}
}

func (s *refSolver) arriveRight(i int32, a effects.Atom) {
	rho := s.ls.Find(a.Loc)
	if s.right[i][rho] {
		return
	}
	s.right[i][rho] = true
	for b := range s.left[i] {
		if s.ls.Find(b.Loc) == rho {
			s.insert(s.g.inter[i].Out, b)
		}
	}
}

func (s *refSolver) recanonicalize() {
	for v := range s.sets {
		for a := range s.sets[v] {
			if c := s.ls.Find(a.Loc); c != a.Loc {
				delete(s.sets[v], a)
				a2 := effects.Atom{Kind: a.Kind, Loc: c}
				if !s.sets[v][a2] {
					s.sets[v][a2] = true
					s.queue = append(s.queue, refQitem{v: effects.Var(v), a: a2})
				}
			}
		}
	}
	for i := range s.left {
		for a := range s.left[i] {
			if c := s.ls.Find(a.Loc); c != a.Loc {
				delete(s.left[i], a)
				s.left[i][effects.Atom{Kind: a.Kind, Loc: c}] = true
			}
		}
		for rho := range s.right[i] {
			if c := s.ls.Find(rho); c != rho {
				delete(s.right[i], rho)
				s.right[i][c] = true
			}
		}
		for a := range s.left[i] {
			if s.right[i][s.ls.Find(a.Loc)] {
				s.insert(s.g.inter[i].Out, a)
			}
		}
	}
}

func (s *refSolver) checkTriggersFor(v effects.Var, a effects.Atom) {
	for _, c := range s.watch[v] {
		if !s.pending[c] {
			continue
		}
		if s.refTriggerMatches(c.Trigger, v, a) {
			s.fire(c)
		}
	}
}

func (s *refSolver) recheckConds() {
	for _, c := range s.condList {
		if !s.pending[c] {
			continue
		}
		if s.refTriggerHolds(c.Trigger) {
			s.fire(c)
		}
	}
}

func (s *refSolver) refTriggerMatches(t effects.Trigger, v effects.Var, a effects.Atom) bool {
	switch t := t.(type) {
	case effects.LocIn:
		return t.V == v && s.ls.Find(t.Loc) == s.ls.Find(a.Loc)
	case effects.AtomIn:
		return t.V == v && t.Kind == a.Kind && s.ls.Find(t.Loc) == s.ls.Find(a.Loc)
	case effects.KindIn:
		return t.V == v && t.Kind == a.Kind
	case effects.PairIn:
		if t.VA == v && a.Kind == t.KindA {
			return s.refHasKindLoc(t.VB, t.KindB, a.Loc)
		}
		if t.VB == v && a.Kind == t.KindB {
			return s.refHasKindLoc(t.VA, t.KindA, a.Loc)
		}
		return false
	default:
		return false
	}
}

func (s *refSolver) refTriggerHolds(t effects.Trigger) bool {
	switch t := t.(type) {
	case effects.LocIn:
		rho := s.ls.Find(t.Loc)
		for a := range s.sets[t.V] {
			if s.ls.Find(a.Loc) == rho {
				return true
			}
		}
	case effects.AtomIn:
		rho := s.ls.Find(t.Loc)
		for a := range s.sets[t.V] {
			if a.Kind == t.Kind && s.ls.Find(a.Loc) == rho {
				return true
			}
		}
	case effects.KindIn:
		for a := range s.sets[t.V] {
			if a.Kind == t.Kind {
				return true
			}
		}
	case effects.PairIn:
		for a := range s.sets[t.VA] {
			if a.Kind == t.KindA && s.refHasKindLoc(t.VB, t.KindB, a.Loc) {
				return true
			}
		}
	}
	return false
}

func (s *refSolver) refHasKindLoc(v effects.Var, k effects.Kind, loc locs.Loc) bool {
	rho := s.ls.Find(loc)
	for a := range s.sets[v] {
		if a.Kind == k && s.ls.Find(a.Loc) == rho {
			return true
		}
	}
	return false
}

func (s *refSolver) fire(c *effects.Cond) {
	delete(s.pending, c)
	s.res.Fired = append(s.res.Fired, c)
	for _, act := range c.Actions {
		switch act := act.(type) {
		case effects.ActUnify:
			s.ls.Absorb(act.A, act.B, s.observeUnify)
		case effects.ActIncl:
			if s.extra == nil {
				s.extra = make([][]target, s.g.nvar)
			}
			s.extra[act.From] = append(s.extra[act.From], target{kind: toVar, idx: int32(act.To)})
			for a := range s.sets[act.From] {
				s.insert(act.To, a)
			}
		case effects.ActAddAtom:
			s.insert(act.V, act.A)
		}
	}
}
