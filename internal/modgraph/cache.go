package modgraph

import (
	"sync"

	"localalias/internal/core"
)

// SummaryCache memoizes per-module analysis outcomes across
// whole-program runs. Entries are content-addressed by the module
// fingerprint — a hash chaining the module's source, the analysis
// options, and the fingerprints of every dependency — so an edit to
// one package invalidates exactly that package and its downstream
// import cone; unrelated packages replay their cached summaries and
// reports without re-analysis.
//
// Cached values are replayed by pointer and must be treated as
// immutable by callers (the analysis never mutates a published API or
// Outcome after construction).
type SummaryCache struct {
	mu      sync.Mutex
	entries map[[32]byte]*cacheEntry
	hits    uint64
	misses  uint64
}

type cacheEntry struct {
	api     *core.PackageAPI
	outcome *Outcome
}

// NewSummaryCache returns an empty cache. It is safe for concurrent
// use, so one cache may serve concurrent Analyze calls.
func NewSummaryCache() *SummaryCache {
	return &SummaryCache{entries: make(map[[32]byte]*cacheEntry)}
}

func (c *SummaryCache) lookup(fp [32]byte) (*core.PackageAPI, *Outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[fp]; ok {
		c.hits++
		return e.api, e.outcome, true
	}
	c.misses++
	return nil, nil, false
}

func (c *SummaryCache) store(fp [32]byte, api *core.PackageAPI, out *Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[fp] = &cacheEntry{api: api, outcome: out}
}

// Stats returns the lookup hit/miss counters.
func (c *SummaryCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached modules.
func (c *SummaryCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
