package effects

import (
	"math/rand/v2"
	"testing"

	"localalias/internal/locs"
)

func TestInternerDenseStableIDs(t *testing.T) {
	ls := locs.NewStore()
	r1, r2 := ls.Fresh("r1"), ls.Fresh("r2")
	in := NewInterner()

	a := Atom{Kind: Read, Loc: r1}
	b := Atom{Kind: Write, Loc: r1}
	c := Atom{Kind: Read, Loc: r2}

	ida, idb, idc := in.Intern(a), in.Intern(b), in.Intern(c)
	if ida != 0 || idb != 1 || idc != 2 {
		t.Fatalf("IDs must be dense in first-intern order: %d %d %d", ida, idb, idc)
	}
	if in.Intern(a) != ida || in.Intern(c) != idc {
		t.Fatal("re-interning must return the same ID")
	}
	if in.Len() != 3 {
		t.Fatalf("Len = %d, want 3", in.Len())
	}
	if in.Atom(idb) != b {
		t.Fatalf("Atom(%d) = %v, want %v", idb, in.Atom(idb), b)
	}
	if id, ok := in.Lookup(b); !ok || id != idb {
		t.Fatal("Lookup must find interned atoms")
	}
	if _, ok := in.Lookup(Atom{Kind: Alloc, Loc: r2}); ok {
		t.Fatal("Lookup must miss never-interned atoms")
	}
}

func TestInternerDistinguishesKindAndLoc(t *testing.T) {
	ls := locs.NewStore()
	r := ls.Fresh("r")
	in := NewInterner()
	seen := map[ID]bool{}
	for k := LocAtom; k <= Alloc; k++ {
		id := in.Intern(Atom{Kind: k, Loc: r})
		if seen[id] {
			t.Fatalf("kind %v collided", k)
		}
		seen[id] = true
	}
}

// TestInternerMatchesMap drives the slot-table interner and a
// map-based reference with the same random atom sequences, resetting
// and reusing one interner across rounds whose location counts go up
// and down, and requires the same ID for every atom, the same atoms
// in the same order, and the same Lookup answers.
func TestInternerMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 1))
	sized := NewInternerSized(8)
	grown := NewInterner()
	for round := 0; round < 200; round++ {
		nlocs := 1 + rng.IntN(4)
		if round%3 == 0 {
			nlocs = 1 + rng.IntN(3000)
		}
		in := sized
		if round%2 == 1 {
			in = grown
		}
		in.Reset()
		ref := map[Atom]ID{}
		var order []Atom
		for range 1 + rng.IntN(4*nlocs) {
			a := Atom{Kind: Kind(rng.IntN(4)), Loc: locs.Loc(rng.IntN(nlocs))}
			want, seen := ref[a]
			if !seen {
				want = ID(len(order))
				ref[a] = want
				order = append(order, a)
			}
			if got := in.Intern(a); got != want {
				t.Fatalf("round %d (%d locations): Intern(%v) = %d, want %d", round, nlocs, a, got, want)
			}
		}
		if in.Len() != len(order) {
			t.Fatalf("round %d: Len = %d, want %d", round, in.Len(), len(order))
		}
		for id, a := range order {
			if in.Atom(ID(id)) != a {
				t.Fatalf("round %d: Atom(%d) = %v, want %v", round, id, in.Atom(ID(id)), a)
			}
		}
		for range 20 {
			a := Atom{Kind: Kind(rng.IntN(4)), Loc: locs.Loc(rng.IntN(2 * nlocs))}
			want, seen := ref[a]
			if got, ok := in.Lookup(a); ok != seen || (seen && got != want) {
				t.Fatalf("round %d: Lookup(%v) = %d, %v; want %d, %v", round, a, got, ok, want, seen)
			}
		}
	}
}
