package service

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
)

// CacheKey derives the content-hash cache key of a request: the
// SHA-256 (hex) over the API version, module name, analysis options,
// and full source text, with NUL separators so no two field layouts
// collide. Identical submissions — same name, same bytes, same
// options — therefore share one key across time, and any change to
// any input yields a fresh one.
//
// The options are keyed by their canonical JSON encoding (with the
// mode defaulted), not by hand-packed flag bits: every exported
// wire field of AnalyzeOptions — including any added later — is
// covered automatically, so a new option can never silently alias
// cache entries across option values. Request fields that do not
// affect response bytes (the `json:"-"` ones) stay outside the key by
// the same rule; the reflect
// guard test in cache_test.go pins both halves of this contract.
//
// Requests carrying a Generate closure have no content to hash until
// the guard runs; callers must not cache them (the Server never sees
// such requests, since Generate is not serializable).
func CacheKey(req *AnalyzeRequest) string {
	opts := req.Options
	if opts.Mode == "" {
		opts.Mode = ModeQual
	}
	enc, err := json.Marshal(opts)
	if err != nil {
		// AnalyzeOptions is a flat struct of marshalable fields; this
		// can only fire if someone adds an unmarshalable field, which
		// the guard test rejects first.
		panic(fmt.Sprintf("service: AnalyzeOptions not canonically encodable: %v", err))
	}
	version := req.APIVersion
	if version == "" {
		version = APIVersion
	}
	h := sha256.New()
	for _, part := range []string{"lna/" + version, req.Module, string(enc), req.Source} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CacheStats is a snapshot of the cache's accounting.
type CacheStats struct {
	Hits uint64 `json:"hits"`
	// Coalesced counts the hits answered by joining a concurrent cold
	// run of the same key rather than a stored entry (a subset of Hits).
	Coalesced uint64 `json:"coalesced"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// Cache is a bounded LRU mapping cache keys to canonical response
// bytes, with in-flight coalescing: while one caller runs a key cold,
// concurrent callers for the same key wait for its bytes instead of
// running the engine again. It is safe for concurrent use. The values
// are the exact bytes the cold run produced, so a hit replays them
// byte-identically.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	entries   map[string]*list.Element
	flights   map[string]*flight // keys being run cold right now
	waiting   int                // followers parked on a flight
	hits      uint64
	coalesced uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key      string
	val      []byte
	findings int
}

// flight is one cold run in progress. val, failed and findings are
// written once, under the cache mutex, before done closes; a nil val
// means the leader abandoned the run without an answer.
type flight struct {
	done     chan struct{}
	leader   string // the leader's trace ID
	val      []byte
	failed   bool
	findings int
}

// NewCache builds a cache holding at most capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[string]*list.Element, capacity),
		flights:  make(map[string]*flight),
	}
}

// Hit is a lookup answered without running the engine. Data is the
// caller's to keep: it is a copy, so mutating it cannot corrupt the
// canonical bytes later hits replay.
type Hit struct {
	Data []byte
	// Coalesced reports that Data came from a concurrent cold run of
	// the same key, led by the request whose trace ID is Leader.
	Coalesced bool
	Leader    string
	// Failed reports that Data is the leader's failure response:
	// shared with the callers that waited for it, never stored.
	Failed bool
	// Findings is the response's findings count, kept beside the bytes
	// so a replay can be summarized without decoding them.
	Findings int
}

// Claim is the right to run one key cold, held by exactly one caller,
// the flight's leader. Finish or Abandon settles it; once settled both
// are no-ops, so a deferred Abandon guards every early exit.
type Claim struct {
	c   *Cache
	key string
	f   *flight
}

// Lookup is the cache's one lookup path. Under the cache mutex it
// resolves key to one of three outcomes. A stored entry is a hit. A
// key another caller is running cold is joined: Lookup waits for that
// flight's bytes, which count as a (coalesced) hit. Otherwise the
// caller gets the Claim, counts as the miss, and must run the key and
// settle the claim. trace names the caller's request to the followers
// it may lead. A wait ends at once with ctx's error, without touching
// the flight; when a leader abandons its flight, its followers look
// the key up again and one of them claims it.
func (c *Cache) Lookup(ctx context.Context, key, trace string) (Hit, *Claim, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.hits++
			c.ll.MoveToFront(el)
			e := el.Value.(*cacheEntry)
			data := bytes.Clone(e.val)
			c.mu.Unlock()
			return Hit{Data: data, Findings: e.findings}, nil, nil
		}
		f, ok := c.flights[key]
		if !ok {
			f = &flight{done: make(chan struct{}), leader: trace}
			c.flights[key] = f
			c.misses++
			c.mu.Unlock()
			return Hit{}, &Claim{c: c, key: key, f: f}, nil
		}
		c.waiting++
		c.mu.Unlock()
		var err error
		select {
		case <-f.done:
		case <-ctx.Done():
			err = ctx.Err()
		}
		c.mu.Lock()
		c.waiting--
		answered := err == nil && f.val != nil
		if answered {
			c.hits++
			c.coalesced++
		}
		c.mu.Unlock()
		if err != nil {
			return Hit{}, nil, err
		}
		if answered {
			return Hit{Data: bytes.Clone(f.val), Coalesced: true, Leader: f.leader, Failed: f.failed, Findings: f.findings}, nil, nil
		}
	}
}

// Finish hands val, with its findings count, to the flight's
// followers. A healthy val (failed false) is also stored, in the same
// critical section that retires the flight, so no lookup can find
// neither; a failure is shared with the followers already waiting and
// never stored, so the next submission runs fresh. The stored bytes
// are a copy of val.
func (cl *Claim) Finish(val []byte, failed bool, findings int) {
	cl.settle(bytes.Clone(val), failed, findings)
}

// Abandon retires the flight without an answer: its followers look the
// key up again, and one of them runs it instead.
func (cl *Claim) Abandon() { cl.settle(nil, false, 0) }

func (cl *Claim) settle(val []byte, failed bool, findings int) {
	f := cl.f
	if f == nil {
		return
	}
	cl.f = nil
	c := cl.c
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.flights, cl.key)
	if val != nil && !failed {
		c.putLocked(&cacheEntry{key: cl.key, val: val, findings: findings})
	}
	f.val, f.failed, f.findings = val, failed, findings
	close(f.done)
}

// putLocked stores e, evicting the least recently used entry if the
// cache is full. Its key is never already present: only the key's
// flight leader stores it. Caller holds c.mu.
func (c *Cache) putLocked(e *cacheEntry) {
	c.entries[e.key] = c.ll.PushFront(e)
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Stats returns a snapshot of the accounting counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Coalesced: c.coalesced,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Capacity:  c.capacity,
	}
}
