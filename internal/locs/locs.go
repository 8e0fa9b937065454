// Package locs manages abstract memory locations (the ρ of the paper).
//
// Every piece of storage the analysis can name — a global cell, the
// elements of an array, a struct field, a cell allocated by new, or
// the fresh location introduced for a restricted/confined binding —
// is assigned an abstract location. The unification-based may-alias
// analysis of the paper (after Steensgaard) merges locations with a
// union-find; names whose types mention the same representative
// location may alias.
//
// Each location counts how many distinct storage origins its
// representative stands for, and whether it stands for many cells
// (array elements). A location standing for a single concrete cell
// ("linear") admits strong updates in the flow-sensitive qualifier
// analysis; array-element locations and unions of several origins do
// not. The fresh ρ' of a restrict or confine binding is one storage
// origin, so it is linear within its scope by construction.
package locs

// Store owns all abstract locations of one analysis run. It is not
// safe for concurrent use.
type Store struct {
	parent     []Loc
	rank       []int8
	info       []Info
	numUnifies int
}

// Loc names one abstract location. Use Store.Find to canonicalize
// before comparing.
type Loc int32

// NoLoc is the absent location.
const NoLoc Loc = -1

// Info is per-location metadata. After unification the representative
// holds the merged metadata.
type Info struct {
	// Name is a debugging/diagnostic label, e.g. "locks[]", "dev.l",
	// "new@12:5", "p'".
	Name string
	// Origins counts distinct storage origins merged into this class.
	Origins int
	// Multi marks locations that stand for several concrete cells
	// even with a single origin (array elements).
	Multi bool
}

// NewStore returns an empty location store.
func NewStore() *Store { return &Store{} }

// Reset empties s for a new analysis run, keeping the capacity of its
// tables. Locations of the earlier run must not be used afterwards.
func (s *Store) Reset() {
	clear(s.info) // drop the names
	*s = Store{parent: s.parent[:0], rank: s.rank[:0], info: s.info[:0]}
}

// Len returns the number of locations created (representatives and
// merged members alike).
func (s *Store) Len() int { return len(s.parent) }

// NumUnifies returns how many unifications have been performed; used
// by complexity benchmarks.
func (s *Store) NumUnifies() int { return s.numUnifies }

// Fresh creates a new location with no storage origin (a type
// placeholder). It becomes meaningful once unified with storage.
func (s *Store) Fresh(name string) Loc {
	l := Loc(len(s.parent))
	s.parent = append(s.parent, l)
	s.rank = append(s.rank, 0)
	s.info = append(s.info, Info{Name: name})
	return l
}

// FreshStorage creates a location that is itself one storage origin
// (a global cell, a new-site, a struct field, the ρ' of a restrict or
// confine binding; with MarkMulti, the elements of an array).
func (s *Store) FreshStorage(name string) Loc {
	l := s.Fresh(name)
	s.info[l].Origins = 1
	return l
}

// Find returns the representative of l, with path compression. It
// writes only when the chain from l is at least two hops long.
func (s *Store) Find(l Loc) Loc {
	p := s.parent[l]
	if p == l {
		return l
	}
	r := s.parent[p]
	if r == p {
		return p
	}
	// Chain of length ≥ 2: find the root, then point every node on
	// the chain straight at it.
	for s.parent[r] != r {
		r = s.parent[r]
	}
	for l != r {
		l, s.parent[l] = s.parent[l], r
	}
	return r
}

// Same reports whether a and b are in the same class.
func (s *Store) Same(a, b Loc) bool { return s.Find(a) == s.Find(b) }

// Info returns the metadata of l's representative.
func (s *Store) InfoOf(l Loc) Info { return s.info[s.Find(l)] }

// Name returns the diagnostic label of l's class.
func (s *Store) Name(l Loc) string { return s.info[s.Find(l)].Name }

// MarkMulti records that l stands for several concrete cells.
func (s *Store) MarkMulti(l Loc) {
	s.info[s.Find(l)].Multi = true
}

// Linear reports whether l's class stands for exactly one concrete
// cell, which is what permits strong updates: at most one storage
// origin and not an array-element class. The fresh ρ' of a successful
// restrict/confine satisfies this by construction (one origin, merged
// with nothing). A failed candidate's ρ' is merged into the outer
// location by Absorb, which leaves the class's origins as they were,
// so ρ stays as linear as it was.
func (s *Store) Linear(l Loc) bool {
	in := s.info[s.Find(l)]
	return !in.Multi && in.Origins <= 1
}

// Unify merges the classes of a and b and returns the representative.
// Metadata is combined: origins add, multi or-s, and the name of the
// higher-origin side wins (ties prefer a's).
func (s *Store) Unify(a, b Loc) Loc {
	return s.merge(a, b, 0, nil)
}

// Absorb merges the class of cp, the fresh ρ' of a restrict/confine
// binding, into the class of a, a location cp copies, and returns the
// representative. It is Unify except that the copy's own storage
// origin is not added: the copy stands for a cell a already counts,
// so the merged class is as linear as a's was. Failed candidates (the
// solver's ActUnify) and confines merged after inference use it.
//
// If the classes actually merge, observe (when non-nil) is invoked
// with the surviving and absorbed representatives. The observer is
// per call, not registered on the store, so each solve sees exactly
// its own unifications and leaves nothing behind when it ends.
func (s *Store) Absorb(a, cp Loc, observe func(winner, loser Loc)) Loc {
	return s.merge(a, cp, 1, observe)
}

// merge unites the classes of a and b, counting drop fewer origins
// than the two classes hold.
func (s *Store) merge(a, b Loc, drop int, observe func(winner, loser Loc)) Loc {
	ra, rb := s.Find(a), s.Find(b)
	if ra == rb {
		return ra
	}
	s.numUnifies++
	winner, loser := ra, rb
	if s.rank[winner] < s.rank[loser] {
		winner, loser = loser, winner
	}
	if s.rank[winner] == s.rank[loser] {
		s.rank[winner]++
	}
	wi, li := s.info[winner], s.info[loser]
	merged := Info{
		Name:    wi.Name,
		Origins: wi.Origins + li.Origins - drop,
		Multi:   wi.Multi || li.Multi,
	}
	if wi.Name == "" || (li.Origins > wi.Origins && li.Name != "") {
		merged.Name = li.Name
	}
	s.parent[loser] = winner
	s.info[winner] = merged
	if observe != nil {
		observe(winner, loser)
	}
	return winner
}
