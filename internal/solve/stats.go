package solve

import "fmt"

// Stats counts the work a Solve performed. The counters are
// deterministic for a given system: atom IDs are assigned in
// first-intern order, propagation order follows the CSR edge layout,
// and conditionals fire in creation order on rechecks — so two runs
// over the same module produce identical numbers. Benchmarks and the
// experiments driver report them so speedups (or regressions) in the
// solver are observable rather than asserted.
// Stats is part of the service wire contract (it rides in every
// AnalyzeResponse), hence the JSON tags.
type Stats struct {
	// Vars is the number of effect variables in the solved system.
	Vars int `json:"vars"`
	// Atoms is the number of distinct atoms interned (kind × location
	// class, counting pre- and post-unification identities).
	Atoms int `json:"atoms"`
	// AtomsPropagated counts successful set insertions (an atom newly
	// entering a variable's solution).
	AtomsPropagated int `json:"atoms_propagated"`
	// IntersectionArrivals counts atoms newly arriving on either side
	// of an intersection node.
	IntersectionArrivals int `json:"intersection_arrivals"`
	// CondFirings counts conditional constraints whose trigger became
	// true.
	CondFirings int `json:"cond_firings"`
	// Unifications counts location unifications observed while
	// solving (fired ActUnify actions that actually merged classes,
	// plus any unifications performed by other store clients during
	// the run).
	Unifications int `json:"unifications"`
	// Recanonicalizations counts incremental re-canonicalization
	// passes (one per quiescent point with pending unifications; each
	// pass touches only the gates holding a stale atom or a merged
	// right-set location).
	Recanonicalizations int `json:"recanonicalizations"`
}

// Add accumulates other into s (for aggregating per-solve stats over
// a pipeline or a corpus).
func (s *Stats) Add(other Stats) {
	s.Vars += other.Vars
	s.Atoms += other.Atoms
	s.AtomsPropagated += other.AtomsPropagated
	s.IntersectionArrivals += other.IntersectionArrivals
	s.CondFirings += other.CondFirings
	s.Unifications += other.Unifications
	s.Recanonicalizations += other.Recanonicalizations
}

func (s Stats) String() string {
	return fmt.Sprintf(
		"vars=%d atoms=%d propagated=%d inter-arrivals=%d cond-firings=%d unifications=%d recanons=%d",
		s.Vars, s.Atoms, s.AtomsPropagated, s.IntersectionArrivals,
		s.CondFirings, s.Unifications, s.Recanonicalizations)
}

// MemoStats is the accounting shape of the component-summary memo the
// solver no longer has. Only service.ServerStats.Memo still names it,
// always nil, because the steady benchmark reads that field; it goes
// when the benchmark stops reading it.
type MemoStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}
