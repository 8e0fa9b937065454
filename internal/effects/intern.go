package effects

// ID is the dense index of an interned Atom. The solver works almost
// exclusively in ID space: effect-variable solution sets and
// intersection-node gate sets are bitsets over IDs, and propagation
// moves int32 indices instead of hashing Atom structs.
type ID int32

// NoID is the absent atom ID.
const NoID ID = -1

// Interner assigns stable dense IDs to Atom values. IDs are assigned
// in first-intern order, so two runs that intern the same atom
// sequence produce identical numberings — which keeps solver
// statistics and diagnostics deterministic.
//
// Locations are dense indices into their store, so an atom's ID lives
// in a slot of a flat table indexed by Loc×4+Kind rather than in a
// hash map: Intern is one bounds check and one load.
//
// The interner does not canonicalize locations itself: callers intern
// atoms whose Loc they have already resolved via locs.Store.Find, and
// after a later unification the same kind×class may legitimately be
// re-interned under the new representative. Stale IDs stay in the
// table — solution sets are read through Find, so the solver leaves
// them in place and only re-examines the intersection gates that hold
// one (see solve.recanonicalize).
type Interner struct {
	// slots holds ID+1 for every interned atom at slot(a); zero marks
	// a slot never filled since the last Reset.
	slots []ID
	atoms []Atom
}

// numKinds is the number of atom kinds, the stride of a location's
// slots.
const numKinds = int(Alloc) + 1

// slot returns a's index in the slot table. A kind outside the four
// atom kinds would alias the next location's slots, so it is a bug.
func slot(a Atom) int {
	if int(a.Kind) >= numKinds {
		panic("effects: interning an atom of unknown kind")
	}
	return int(a.Loc)*numKinds + int(a.Kind)
}

// NewInterner returns an empty interner.
func NewInterner() *Interner { return &Interner{} }

// NewInternerSized returns an empty interner with slots for n
// locations (the solver passes the location-store size), so the slot
// table does not grow while the solve interns.
func NewInternerSized(n int) *Interner {
	return &Interner{
		slots: make([]ID, n*numKinds),
		atoms: make([]Atom, 0, n),
	}
}

// Intern returns the ID of a, assigning the next dense ID on first
// sight.
func (in *Interner) Intern(a Atom) ID {
	if id, ok := in.Lookup(a); ok {
		return id
	}
	return in.add(a)
}

// add assigns a, never interned, the next ID, growing the slot table
// to cover a's location.
func (in *Interner) add(a Atom) ID {
	i := slot(a)
	if i >= len(in.slots) {
		in.slots = append(in.slots, make([]ID, i+1-len(in.slots))...)
	}
	id := ID(len(in.atoms))
	in.slots[i] = id + 1
	in.atoms = append(in.atoms, a)
	return id
}

// Lookup returns the ID of a, or NoID if a has never been interned.
func (in *Interner) Lookup(a Atom) (ID, bool) {
	if i := slot(a); i < len(in.slots) && in.slots[i] != 0 {
		return in.slots[i] - 1, true
	}
	return NoID, false
}

// Atom returns the atom with the given ID.
func (in *Interner) Atom(id ID) Atom { return in.atoms[id] }

// Reset empties the interner while keeping its slot table and atom
// slice, so a pooled solver can reuse one interner across solves. It
// clears only the slots the interned atoms filled, not the whole
// table, which stays as large as the largest store seen. IDs restart
// from zero.
func (in *Interner) Reset() {
	for _, a := range in.atoms {
		in.slots[slot(a)] = 0
	}
	in.atoms = in.atoms[:0]
}

// Len returns the number of distinct atoms interned.
func (in *Interner) Len() int { return len(in.atoms) }
