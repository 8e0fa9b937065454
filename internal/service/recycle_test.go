package service

import (
	"bytes"
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// recycleRequests is the corpus, and the leaves of a 12-leaf XStack as
// multi_module requests, in confine and qual mode (the digest test's
// requests in those modes): the two modes in which one request hands
// the baseline run's storage to the confine run and releases both
// solutions.
func recycleRequests() []*AnalyzeRequest {
	var reqs []*AnalyzeRequest
	for _, c := range digestConfigs() {
		mode := c.reqs[0].Options.Mode
		if mode == ModeConfine || mode == ModeQual {
			reqs = append(reqs, c.reqs...)
		}
	}
	return reqs
}

func canonicalBody(t *testing.T, req *AnalyzeRequest) []byte {
	resp := Analyze(context.Background(), req)
	if resp.Failure != nil {
		t.Errorf("%s %s: failure %+v", req.Module, req.Options.Mode, resp.Failure)
		return nil
	}
	b, err := resp.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecyclingDifferential runs the corpus through the engine twice
// more after a single-threaded reference pass — on two goroutines in
// order, then on two goroutines in reverse order — so that every
// request runs in storage (solver arenas, handed-off inference
// tables) last used by some other module, of another size, on
// another goroutine. Every body must equal the reference byte for
// byte.
func TestRecyclingDifferential(t *testing.T) {
	reqs := recycleRequests()
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		want[i] = canonicalBody(t, req)
	}
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	for _, pass := range []string{"forward", "reverse"} {
		if pass == "reverse" {
			sort.Sort(sort.Reverse(sort.IntSlice(order)))
		}
		got := make([][]byte, len(reqs))
		var next atomic.Int64
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= len(order) {
						return
					}
					i := order[k]
					got[i] = canonicalBody(t, reqs[i])
				}
			}()
		}
		wg.Wait()
		for i := range reqs {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s pass: %s %s differs from the single-threaded body",
					pass, reqs[i].Module, reqs[i].Options.Mode)
			}
		}
	}
}
