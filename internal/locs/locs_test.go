package locs

import "testing"

func TestFreshDistinct(t *testing.T) {
	s := NewStore()
	a := s.Fresh("a")
	b := s.Fresh("b")
	if s.Same(a, b) {
		t.Fatal("fresh locations must be distinct")
	}
	if s.Name(a) != "a" || s.Name(b) != "b" {
		t.Errorf("names: %q %q", s.Name(a), s.Name(b))
	}
}

func TestUnifyBasic(t *testing.T) {
	s := NewStore()
	a := s.Fresh("a")
	b := s.Fresh("b")
	c := s.Fresh("c")
	s.Unify(a, b)
	if !s.Same(a, b) {
		t.Fatal("a and b must be unified")
	}
	if s.Same(a, c) {
		t.Fatal("c must stay separate")
	}
	s.Unify(b, c)
	if !s.Same(a, c) {
		t.Fatal("transitive unification")
	}
	if s.NumUnifies() != 2 {
		t.Errorf("NumUnifies = %d, want 2", s.NumUnifies())
	}
}

func TestUnifyIdempotent(t *testing.T) {
	s := NewStore()
	a := s.Fresh("a")
	b := s.Fresh("b")
	s.Unify(a, b)
	n := s.NumUnifies()
	s.Unify(a, b)
	if s.NumUnifies() != n {
		t.Error("unifying an already-unified pair must be a no-op")
	}
}

func TestLinearity(t *testing.T) {
	s := NewStore()
	g := s.FreshStorage("g") // one global cell
	if !s.Linear(g) {
		t.Error("single-origin storage is linear")
	}
	arr := s.FreshStorage("locks[]")
	s.MarkMulti(arr)
	if s.Linear(arr) {
		t.Error("array elements are never linear")
	}
	placeholder := s.Fresh("t")
	if !s.Linear(placeholder) {
		t.Error("origin-free placeholder is (vacuously) linear")
	}

	// Two storage origins merged: not linear.
	a := s.FreshStorage("a")
	b := s.FreshStorage("b")
	s.Unify(a, b)
	if s.Linear(a) {
		t.Error("two merged origins are not linear")
	}
	if s.InfoOf(a).Origins != 2 {
		t.Errorf("origins = %d, want 2", s.InfoOf(a).Origins)
	}
}

func TestRestrictedLinear(t *testing.T) {
	s := NewStore()
	rp := s.FreshStorage("p'")
	if !s.Linear(rp) {
		t.Error("a fresh restricted location is linear (one origin)")
	}
	// A FAILED restrict candidate is merged into the outer (array)
	// location; the merged class must NOT be linear.
	arr := s.FreshStorage("locks[]")
	s.MarkMulti(arr)
	s.Absorb(arr, rp, nil)
	if s.Linear(rp) {
		t.Error("restricted-merged-with-array must not be linear")
	}
	// Merged into a single cell, the copy adds no origin: the cell
	// stays linear, where a plain union would count two origins.
	cell := s.FreshStorage("g")
	rq := s.FreshStorage("q'")
	s.Absorb(cell, rq, nil)
	if in := s.InfoOf(cell); !s.Linear(cell) || in.Origins != 1 {
		t.Errorf("cell after absorbing a copy: origins %d, linear %v; want 1, true", in.Origins, s.Linear(cell))
	}
}

func TestUnifyMetadataMerge(t *testing.T) {
	s := NewStore()
	a := s.FreshStorage("a")
	s.Unify(a, s.FreshStorage("a2")) // a now has 2 origins
	b := s.FreshStorage("b")
	s.MarkMulti(b)
	r := s.Unify(a, b)
	in := s.InfoOf(r)
	if in.Origins != 3 {
		t.Errorf("origins = %d, want 3", in.Origins)
	}
	if !in.Multi {
		t.Error("multi must be or-ed")
	}
}

// TestAbsorbObserver: the observer given to one Absorb call sees that
// call's merge and nothing else — not a redundant merge, and not a
// later merge made without it.
func TestAbsorbObserver(t *testing.T) {
	s := NewStore()
	a := s.FreshStorage("a")
	b := s.FreshStorage("b'")
	var wins, loses []Loc
	observe := func(w, l Loc) {
		wins = append(wins, w)
		loses = append(loses, l)
	}
	r := s.Absorb(a, b, observe)
	if len(wins) != 1 {
		t.Fatalf("observer count = %d", len(wins))
	}
	if wins[0] != r {
		t.Errorf("winner %v != representative %v", wins[0], r)
	}
	if s.Find(loses[0]) != r {
		t.Errorf("loser must now resolve to winner")
	}
	// No call on a redundant merge.
	s.Absorb(a, b, observe)
	if len(wins) != 1 {
		t.Error("redundant absorb must not call the observer")
	}
	// A merge made without the observer is not seen by it.
	s.Unify(a, s.FreshStorage("c"))
	if len(wins) != 1 {
		t.Error("an observer must see only the merges of its own call")
	}
	if s.NumUnifies() != 2 {
		t.Errorf("NumUnifies = %d, want 2", s.NumUnifies())
	}
}

func TestFindPathCompression(t *testing.T) {
	s := NewStore()
	ls := make([]Loc, 100)
	for i := range ls {
		ls[i] = s.Fresh("x")
	}
	for i := 1; i < len(ls); i++ {
		s.Unify(ls[i-1], ls[i])
	}
	r := s.Find(ls[0])
	for _, l := range ls {
		if s.Find(l) != r {
			t.Fatal("all must share one representative")
		}
	}
	if s.InfoOf(r).Origins != 0 {
		t.Errorf("placeholders carry no origins, got %d", s.InfoOf(r).Origins)
	}
}
