// Package gateway is the distributed front of the analysis service:
// an HTTP tier that consistent-hashes each request's content-hash
// cache key across a pool of health-checked `lna serve` replicas, so
// the same module (same source, same options) always lands on the
// same backend and its result cache stays hot. Around
// that routing core it layers per-request retry with ring-successor
// rerouting, and the same bounded admission control the daemon itself
// applies.
//
// The gateway speaks the exact v1 wire contract of package service —
// request bodies are forwarded verbatim and response bodies relayed
// verbatim, so a response through the gateway is byte-identical to
// one from the backend daemon.
package gateway

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// vnodes is the virtual-node count per backend: enough points that
// removing one backend of four moves only ~1/4 of the keyspace and the
// per-backend load imbalance stays within a few percent.
const vnodes = 64

// ring is an immutable consistent-hash ring over backend IDs. Lookups
// are lock-free; membership changes build a new ring (the pool swaps
// an atomic pointer).
type ring struct {
	points []ringPoint // sorted by hash
	ids    []string    // distinct members, for Sequence's bound
}

type ringPoint struct {
	hash uint64
	id   string
}

// ringHash positions a string on the ring: the first 8 bytes of its
// SHA-256. The cache keys being routed are themselves SHA-256 hex, but
// re-hashing keeps vnode labels and keys in one uniform point space.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing builds a ring with vnodes points per id. An empty id list
// yields an empty ring (Owner and Sequence return nothing).
func newRing(ids []string) *ring {
	r := &ring{
		points: make([]ringPoint, 0, len(ids)*vnodes),
		ids:    append([]string(nil), ids...),
	}
	for _, id := range ids {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: ringHash(id + "#" + strconv.Itoa(v)),
				id:   id,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on id so the ring is deterministic even in the
		// astronomically unlikely event of a 64-bit collision.
		return r.points[i].id < r.points[j].id
	})
	return r
}

// owner returns the backend owning key: the first point clockwise from
// the key's position. "" on an empty ring.
func (r *ring) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].id
}

// sequence returns up to n distinct backends for key in ring order:
// the owner first, then the successors a retry should walk. Walking in
// ring order (instead of picking randomly) keeps retries deterministic
// and sends a rerouted key to the backend that will own it if the
// failure becomes a membership change — so the re-analysis warms the
// right cache.
func (r *ring) sequence(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.ids) {
		n = len(r.ids)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			out = append(out, p.id)
		}
	}
	return out
}
