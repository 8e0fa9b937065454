package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"localalias/internal/obs"
	"localalias/internal/service"
)

// The coalescing suites: concurrent identical cold submissions share
// one engine run (see Cache.Lookup). Each test parks the leader's run
// in the analysis hook until its followers have joined, so the herd is
// deterministic rather than a matter of scheduling luck.

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// coldBytes is the canonical response of a bare engine run of req —
// what every coalesced answer must equal.
func coldBytes(t *testing.T, req service.AnalyzeRequest) []byte {
	t.Helper()
	data, err := service.Analyze(context.Background(), &req).MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// compact strips the indentation a batch envelope re-applies to its
// entries, so batch and single-module bodies compare as JSON text.
func compact(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, data)
	}
	return buf.Bytes()
}

// answer is one coalesced submission's outcome.
type answer struct {
	body  []byte
	cache string // hit|miss
	trace string
	err   error
}

// TestColdHerdRunsEngineOnce: 16 concurrent identical cold submissions
// — singles, single-entry batches, and batches naming the module twice
// — run the engine exactly once and all answer the same bytes. The
// other 15 count as cache hits, every one of them coalesced, and a
// follower's own trace names the run it waited for.
func TestColdHerdRunsEngineOnce(t *testing.T) {
	const module = "herd.mc"
	req := service.AnalyzeRequest{Module: module, Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}}
	want := coldBytes(t, req)

	release := make(chan struct{})
	var runs atomic.Int32
	service.SetTestAnalyzeHook(func(ctx context.Context, m string) {
		if m == module {
			runs.Add(1)
			<-release
		}
	})
	var (
		wg      sync.WaitGroup
		once    sync.Once
		mu      sync.Mutex
		answers []answer
	)
	releaseAll := func() { once.Do(func() { close(release) }) }
	defer func() { releaseAll(); wg.Wait(); service.SetTestAnalyzeHook(nil) }()

	s, c := newTestServer(t, service.ServerOptions{Workers: 2, QueueDepth: 64})
	app := obs.App()
	engineBefore := app.Requests(service.ModeCheck).Value()

	record := func(a answer) {
		mu.Lock()
		answers = append(answers, a)
		mu.Unlock()
	}
	const singles = 10
	batches := []int{1, 1, 2, 2}
	for i := 0; i < singles; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := req
			body, meta, err := c.AnalyzeRaw(context.Background(), &r)
			record(answer{body: body, cache: meta.Cache, trace: meta.TraceID, err: err})
		}()
	}
	for _, n := range batches {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			reqs := make([]service.AnalyzeRequest, n)
			for i := range reqs {
				reqs[i] = req
			}
			out, _, err := c.Batch(context.Background(), reqs)
			if err != nil {
				record(answer{err: err})
				return
			}
			for _, e := range out.Results {
				cache := "miss"
				if e.Cached {
					cache = "hit"
				}
				record(answer{body: e.Response, cache: cache, trace: e.TraceID})
			}
		}(n)
	}
	total := singles
	for _, n := range batches {
		total += n
	}
	waitFor(t, "15 followers to join the held run", func() bool {
		return runs.Load() == 1 && service.CacheWaiting(s) == total-1
	})
	releaseAll()
	wg.Wait()

	if len(answers) != total {
		t.Fatalf("%d answers, want %d", len(answers), total)
	}
	var leader string
	var followers []answer
	for _, a := range answers {
		if a.err != nil {
			t.Fatalf("submission failed: %v", a.err)
		}
		if !bytes.Equal(compact(t, a.body), compact(t, want)) {
			t.Errorf("coalesced body differs from a cold run:\n%s", a.body)
		}
		if a.cache == "miss" {
			if leader != "" {
				t.Error("more than one submission reported a cache miss")
			}
			leader = a.trace
		} else {
			followers = append(followers, a)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("engine entered %d times, want 1", got)
	}
	if got := app.Requests(service.ModeCheck).Value() - engineBefore; got != 1 {
		t.Errorf("lna_requests_total{mode=check} moved by %d, want 1", got)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != uint64(total-1) || st.Cache.Coalesced != uint64(total-1) || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
		t.Errorf("cache stats = %+v; want %d hits, all coalesced, 1 miss, 1 entry", st.Cache, total-1)
	}

	// A follower's trace explains why it was cheap: one cache.wait span
	// naming the leader's trace.
	if leader == "" || len(followers) == 0 {
		t.Fatal("no leader or no followers")
	}
	tr, err := c.Trace(context.Background(), followers[0].trace)
	if err != nil {
		t.Fatalf("fetching a follower's trace: %v", err)
	}
	wantArgs := []string{obs.AttrCache, obs.CacheCoalesced, obs.AttrLeaderTrace, leader}
	found := false
	for _, sp := range tr.Spans {
		if sp.Name == obs.SpanCacheWait && strings.Join(sp.Args, ",") == strings.Join(wantArgs, ",") {
			found = true
		}
	}
	if !found {
		t.Errorf("follower trace lacks a %s span with args %v: %+v", obs.SpanCacheWait, wantArgs, tr.Spans)
	}
}

// TestCoalescedLeaderPanicSharedNotCached: a leader whose run panics
// hands its failure bytes to the followers that waited for it, nothing
// is cached, and the next submission runs the engine again.
func TestCoalescedLeaderPanicSharedNotCached(t *testing.T) {
	const module = "boom.mc"
	req := service.AnalyzeRequest{Module: module, Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}}
	release := make(chan struct{})
	var runs atomic.Int32
	service.SetTestAnalyzeHook(func(ctx context.Context, m string) {
		if m == module && runs.Add(1) == 1 {
			<-release
			panic("injected leader fault")
		}
	})
	var (
		wg   sync.WaitGroup
		once sync.Once
	)
	releaseAll := func() { once.Do(func() { close(release) }) }
	defer func() { releaseAll(); wg.Wait(); service.SetTestAnalyzeHook(nil) }()

	s, c := newTestServer(t, service.ServerOptions{Workers: 2})
	const n = 4
	answers := make([]answer, n)
	for i := range answers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := req
			body, meta, err := c.AnalyzeRaw(context.Background(), &r)
			answers[i] = answer{body: body, cache: meta.Cache, err: err}
		}(i)
	}
	waitFor(t, "followers to join the held run", func() bool {
		return runs.Load() == 1 && service.CacheWaiting(s) == n-1
	})
	releaseAll()
	wg.Wait()

	misses := 0
	for i, a := range answers {
		if a.err != nil {
			t.Fatalf("submission %d: %v", i, a.err)
		}
		if !bytes.Equal(a.body, answers[0].body) {
			t.Errorf("submission %d got different failure bytes:\n%s\nvs\n%s", i, a.body, answers[0].body)
		}
		if a.cache == "miss" {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d misses, want 1 (the leader)", misses)
	}
	var resp service.AnalyzeResponse
	if err := json.Unmarshal(answers[0].body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Failure == nil || !strings.Contains(resp.Failure.Message, "injected leader fault") {
		t.Fatalf("shared response lacks the leader's failure: %+v", resp.Failure)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Entries != 0 || st.Failures != n {
		t.Errorf("stats = %+v; want no cache entries and %d failures", st, n)
	}

	engineBefore := obs.App().Requests(service.ModeCheck).Value()
	r := req
	fresh, meta, err := c.Analyze(context.Background(), &r)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Cache != "miss" || fresh.Failure != nil || !fresh.OK {
		t.Errorf("resubmission: cache %q, response %+v; want a healthy miss", meta.Cache, fresh)
	}
	if got := obs.App().Requests(service.ModeCheck).Value() - engineBefore; got != 1 {
		t.Errorf("resubmission ran the engine %d times, want 1", got)
	}
}

// TestCoalescedLeaderCancelFollowerRuns: when the leader's own client
// goes away mid-run, its cancellation failure is not shared; a live
// follower runs the analysis instead and gets the cold run's bytes.
func TestCoalescedLeaderCancelFollowerRuns(t *testing.T) {
	const module = "orphan.mc"
	req := service.AnalyzeRequest{Module: module, Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}}
	want := coldBytes(t, req)

	// The leader's run outlives its client: it ignores cancellation
	// until the test ends, so the fault guard abandons it.
	hold := make(chan struct{})
	var runs atomic.Int32
	service.SetTestAnalyzeHook(func(ctx context.Context, m string) {
		if m == module && runs.Add(1) == 1 {
			<-ctx.Done()
			<-hold
		}
	})
	var wg sync.WaitGroup
	defer func() { close(hold); wg.Wait(); service.SetTestAnalyzeHook(nil) }()

	s, c := newTestServer(t, service.ServerOptions{Workers: 2})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	wg.Add(2)
	go func() {
		defer wg.Done()
		r := req
		_, _, _ = c.AnalyzeRaw(leaderCtx, &r)
	}()
	waitFor(t, "the leader to enter the engine", func() bool { return runs.Load() == 1 })
	var follower answer
	go func() {
		defer wg.Done()
		r := req
		body, meta, err := c.AnalyzeRaw(context.Background(), &r)
		follower = answer{body: body, cache: meta.Cache, err: err}
	}()
	waitFor(t, "the follower to join", func() bool { return service.CacheWaiting(s) == 1 })
	cancelLeader()
	waitFor(t, "the follower to run the module itself", func() bool { return runs.Load() == 2 })
	wg.Wait()

	if follower.err != nil {
		t.Fatalf("follower: %v", follower.err)
	}
	if !bytes.Equal(follower.body, want) {
		t.Errorf("follower body differs from a cold run:\n%s\nwant\n%s", follower.body, want)
	}
	if st := s.CacheStats(); st.Entries != 1 || st.Coalesced != 0 {
		t.Errorf("cache stats = %+v; want the follower's healthy run cached, nothing coalesced", st)
	}
}

// TestCoalescedFollowerCancel: a follower whose client goes away stops
// waiting at once, and the leader's response and cache entry are
// unaffected.
func TestCoalescedFollowerCancel(t *testing.T) {
	const module = "impatient.mc"
	req := service.AnalyzeRequest{Module: module, Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}}
	want := coldBytes(t, req)

	release := make(chan struct{})
	var runs atomic.Int32
	service.SetTestAnalyzeHook(func(ctx context.Context, m string) {
		if m == module {
			runs.Add(1)
			<-release
		}
	})
	var (
		wg   sync.WaitGroup
		once sync.Once
	)
	releaseAll := func() { once.Do(func() { close(release) }) }
	defer func() { releaseAll(); wg.Wait(); service.SetTestAnalyzeHook(nil) }()

	s, c := newTestServer(t, service.ServerOptions{Workers: 2})
	var leader answer
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := req
		body, meta, err := c.AnalyzeRaw(context.Background(), &r)
		leader = answer{body: body, cache: meta.Cache, err: err}
	}()
	waitFor(t, "the leader to enter the engine", func() bool { return runs.Load() == 1 })

	followerCtx, cancelFollower := context.WithCancel(context.Background())
	followerErr := make(chan error, 1)
	go func() {
		r := req
		_, _, err := c.AnalyzeRaw(followerCtx, &r)
		followerErr <- err
	}()
	waitFor(t, "the follower to join", func() bool { return service.CacheWaiting(s) == 1 })
	cancelFollower()
	select {
	case err := <-followerErr:
		if err == nil {
			t.Error("canceled follower reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled follower did not return")
	}
	waitFor(t, "the server to drop the follower", func() bool { return service.CacheWaiting(s) == 0 })

	releaseAll()
	wg.Wait()
	if leader.err != nil || leader.cache != "miss" {
		t.Fatalf("leader: cache %q, err %v", leader.cache, leader.err)
	}
	if !bytes.Equal(leader.body, want) {
		t.Errorf("leader body differs from a cold run:\n%s", leader.body)
	}
	r := req
	replay, meta, err := c.AnalyzeRaw(context.Background(), &r)
	if err != nil || meta.Cache != "hit" || !bytes.Equal(replay, want) {
		t.Errorf("resubmission: cache %q, err %v, bytes equal %v; want a hit on the leader's bytes",
			meta.Cache, err, bytes.Equal(replay, want))
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("engine entered %d times, want 1", got)
	}
	if st := s.CacheStats(); st.Coalesced != 0 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v; want 1 hit, 1 miss, nothing coalesced", st)
	}
}
