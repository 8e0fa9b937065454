// Package bitset provides a growable dense bitset over small integer
// indices. The constraint solver uses it for effect-variable atom
// sets, intersection-node gate sets, and reachability results, where
// the members are interned atom IDs or abstract locations — both
// dense int32 index spaces — and the dominant operations are
// insert-if-absent and iterate.
package bitset

import "math/bits"

// Set is a growable bitset. The zero value is an empty set ready for
// use; it allocates nothing until the first Add.
type Set struct {
	words []uint64
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	w := i >> 6
	return w < len(s.words) && s.words[w]&(1<<(uint(i)&63)) != 0
}

// Add inserts i, growing the set as needed, and reports whether i was
// newly added (false if it was already present). This combined
// test-and-set is the solver's hot operation: one bounds check, one
// word read, one word write.
func (s *Set) Add(i int) bool {
	w := i >> 6
	if w >= len(s.words) {
		// Min 4 words: sets that grow member-by-member from empty would
		// otherwise churn through 1-, then 2-word allocations.
		grown := make([]uint64, max(w+1, 2*len(s.words), 4))
		copy(grown, s.words)
		s.words = grown
	}
	bit := uint64(1) << (uint(i) & 63)
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	return true
}

// Remove deletes i if present.
func (s *Set) Remove(i int) {
	w := i >> 6
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(i) & 63)
	}
}

// Len counts the members.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls f for every member in increasing order. f must not
// mutate the set (collect into a scratch slice first if a pass needs
// to remove or re-add members).
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		base := wi << 6
		for w != 0 {
			f(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// AppendMembers appends every member to dst in increasing order and
// returns the extended slice. It exists so iterate-and-mutate passes
// (the solver's re-canonicalization) can snapshot a set without an
// allocation per call.
func (s *Set) AppendMembers(dst []int32) []int32 {
	for wi, w := range s.words {
		base := wi << 6
		for w != 0 {
			dst = append(dst, int32(base+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// Clear removes all members, retaining capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// ArenaBuf is a reusable backing for sets carved from one allocation:
// a pooled solver checks one out per solve and calls Carve, so the
// steady state re-zeroes one retained allocation instead of making n
// sets. A carved set that outgrows its window reallocates
// independently; growth copies into a fresh slice, so the shared
// backing is never written past a set's own window. The zero value
// is ready for use.
type ArenaBuf struct {
	words []uint64
	sets  []Set
}

// Carve returns n sets each pre-sized for members below words×64,
// reusing the buffer's backing storage when it is large enough (the
// reused region is zeroed). The returned slice and its sets remain
// valid until the next Carve; callers must not use them past that.
func (b *ArenaBuf) Carve(n, words int) []Set {
	if cap(b.sets) >= n {
		b.sets = b.sets[:n]
		for i := range b.sets {
			b.sets[i].words = nil
		}
	} else {
		b.sets = make([]Set, n)
	}
	sets := b.sets
	if words <= 0 || n == 0 {
		return sets
	}
	need := n * words
	if cap(b.words) >= need {
		b.words = b.words[:need]
		clear(b.words)
	} else {
		b.words = make([]uint64, need)
	}
	for i := range sets {
		sets[i].words = b.words[i*words : (i+1)*words : (i+1)*words]
	}
	return sets
}
