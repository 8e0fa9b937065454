package gateway

import (
	"fmt"
	"testing"
)

// TestRingDeterminism: two rings built from the same members agree on
// every owner — the property that lets every gateway replica (and a
// restarted gateway) route identically with no coordination.
func TestRingDeterminism(t *testing.T) {
	ids := []string{"http://a", "http://b", "http://c", "http://d"}
	r1, r2 := newRing(ids), newRing(ids)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%03d", i)
		if r1.owner(key) != r2.owner(key) {
			t.Fatalf("rings from identical members disagree on %s", key)
		}
	}
	// Member order must not matter either.
	r3 := newRing([]string{"http://d", "http://b", "http://a", "http://c"})
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%03d", i)
		if r1.owner(key) != r3.owner(key) {
			t.Fatalf("member order changed the owner of %s", key)
		}
	}
}

// TestRingBalance: with 64 vnodes, 4 backends each own a reasonable
// share of 4000 keys (no backend starves or hogs the keyspace).
func TestRingBalance(t *testing.T) {
	ids := []string{"http://a", "http://b", "http://c", "http://d"}
	r := newRing(ids)
	counts := make(map[string]int)
	const n = 4000
	for i := 0; i < n; i++ {
		counts[r.owner(fmt.Sprintf("key-%04d", i))]++
	}
	for _, id := range ids {
		share := float64(counts[id]) / n
		if share < 0.10 || share > 0.45 {
			t.Errorf("backend %s owns %.1f%% of the keyspace (counts %v)", id, 100*share, counts)
		}
	}
}

// TestRingMinimalDisruption: removing one backend moves only the keys
// it owned; every other key keeps its owner — the consistent-hashing
// property that preserves cache affinity through membership churn.
func TestRingMinimalDisruption(t *testing.T) {
	all := []string{"http://a", "http://b", "http://c", "http://d"}
	without := []string{"http://a", "http://b", "http://d"} // c removed
	rAll, rLess := newRing(all), newRing(without)
	moved := 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%04d", i)
		before, after := rAll.owner(key), rLess.owner(key)
		if before == "http://c" {
			if after == "http://c" {
				t.Fatalf("%s still owned by the removed backend", key)
			}
			moved++
			continue
		}
		if before != after {
			t.Errorf("%s moved from %s to %s though its owner survived", key, before, after)
		}
	}
	if moved == 0 {
		t.Error("removed backend owned no keys; the balance test should have caught this")
	}
}

// TestRingSequence: the retry walk starts at the owner, never repeats
// a backend, and is capped by the member count.
func TestRingSequence(t *testing.T) {
	ids := []string{"http://a", "http://b", "http://c"}
	r := newRing(ids)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%03d", i)
		seq := r.sequence(key, 5)
		if len(seq) != 3 {
			t.Fatalf("sequence(%s, 5) over 3 members = %v", key, seq)
		}
		if seq[0] != r.owner(key) {
			t.Errorf("%s: sequence does not start at the owner", key)
		}
		seen := map[string]bool{}
		for _, id := range seq {
			if seen[id] {
				t.Errorf("%s: duplicate %s in sequence %v", key, id, seq)
			}
			seen[id] = true
		}
	}
	if got := newRing(nil).sequence("k", 3); got != nil {
		t.Errorf("empty ring sequence = %v, want nil", got)
	}
	if got := newRing(nil).owner("k"); got != "" {
		t.Errorf("empty ring owner = %q, want empty", got)
	}
}
