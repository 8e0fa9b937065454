package solve

import (
	"sync"

	"localalias/internal/bitset"
	"localalias/internal/effects"
	"localalias/internal/locs"
)

// This file owns the solver's storage recycling. A Solve allocates in
// two lifetimes:
//
//   - scratch: everything dead the moment Solve returns — the graph
//     build's buffers (CSR arrays, seed rows, intersection nodes), the
//     worklist, the watch index, intersection gate sets, and the
//     re-canonicalization buffers. One scratch is checked out per
//     Solve and returned before it exits.
//
//   - retained: what the Result keeps alive — the interner (accessors
//     translate IDs back to atoms through it) and the solution-set
//     arena. These ride in the Result until Result.Release hands them
//     back; callers that never Release simply let the GC take them.
//
// The split is what makes reuse safe: nothing in a live Result aliases
// a pooled scratch, so a daemon running solves back-to-back recycles
// the big allocations without use-after-free hazards, and Release is
// an optimization rather than an obligation.

// scratch is the per-solve recyclable state. All fields are
// lazily grown and retained at their high-water capacity.
type scratch struct {
	// Graph-build buffers (see newGraph).
	seeds     [][]effects.Atom
	degree    []int32
	edgeStart []int32
	edges     []target
	next      []int32
	inter     []inode

	// Solver buffers (see SolveCtx).
	queue      []qitem
	scratchBuf []int32
	staleBuf   []effects.ID
	losers     []locs.Loc
	idsByLoc   [][]effects.ID
	pending    []bool
	watch      [][]int32
	leftBuf    bitset.ArenaBuf
	right      []bitset.Set
	sharedLocs bitset.Set
	waiting    [][]gateAtom
}

// retained is the storage a Result keeps until Release.
type retained struct {
	in      *effects.Interner
	setsBuf bitset.ArenaBuf
}

var (
	scratchPool  = sync.Pool{New: func() any { return new(scratch) }}
	retainedPool = sync.Pool{New: func() any { return new(retained) }}
)

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) { scratchPool.Put(sc) }

func getRetained(nlocs int) *retained {
	r := retainedPool.Get().(*retained)
	if r.in == nil {
		r.in = effects.NewInternerSized(nlocs)
	} else {
		r.in.Reset()
	}
	return r
}

func putRetained(r *retained) { retainedPool.Put(r) }

// takeSlice returns buf resized to n with all elements zeroed,
// growing only when capacity is insufficient.
func takeSlice[T any](buf *[]T, n int) []T {
	s := *buf
	if cap(s) < n {
		s = make([]T, n)
	} else {
		s = s[:n]
		clear(s)
	}
	*buf = s
	return s
}

// takeRows returns buf resized to n rows, each truncated to length
// zero with its capacity kept — so the per-row appends of the next
// solve reuse the previous solve's row storage. Rows hidden beyond a
// shorter take survive in the backing array and come back on a later,
// larger take.
func takeRows[T any](buf *[][]T, n int) [][]T {
	s := *buf
	if cap(s) < n {
		grown := make([][]T, n)
		copy(grown, s[:cap(s)])
		s = grown
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = s[i][:0]
	}
	*buf = s
	return s
}

// takeRight returns the right-set array sized to n with every set
// emptied in place (bitset capacity kept).
func (sc *scratch) takeRight(n int) []bitset.Set {
	s := sc.right
	if cap(s) < n {
		grown := make([]bitset.Set, n)
		copy(grown, s[:cap(s)])
		s = grown
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i].Clear()
	}
	sc.right = s
	return s
}

// takeSharedLocs returns the shared-location set emptied in place.
func (sc *scratch) takeSharedLocs() bitset.Set {
	sc.sharedLocs.Clear()
	return sc.sharedLocs
}

func (sc *scratch) takeWaiting(n int) [][]gateAtom {
	return takeRows(&sc.waiting, n)
}

func (sc *scratch) takeIDsByLoc(n int) [][]effects.ID {
	return takeRows(&sc.idsByLoc, n)
}

func (sc *scratch) takePending(n int) []bool {
	return takeSlice(&sc.pending, n)
}

func (sc *scratch) takeWatch(n int) [][]int32 {
	return takeRows(&sc.watch, n)
}

// reclaim copies a finished solver's buffers back into the scratch so
// mid-solve growth (a longer worklist, more stale IDs, organically
// grown right sets) raises the retained high-water marks.
func (sc *scratch) reclaim(s *solver) {
	sc.queue = s.queue[:0]
	sc.scratchBuf = s.scratch[:0]
	sc.staleBuf = s.staleBuf[:0]
	sc.losers = s.losers[:0]
	sc.idsByLoc = s.idsByLoc
	sc.watch = s.watch
	sc.pending = s.pending
	sc.right = s.right
	if s.shared != effects.NoVar {
		sc.sharedLocs = s.sharedLocs
		sc.waiting = s.waiting
	}
}
