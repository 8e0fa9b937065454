// The daemon's wire-contract suite lives in package service_test and
// drives the server exclusively through internal/client — the same
// typed client the gateway, the CLI's remote mode, and the load
// harness use. The tests therefore pin the contract a real remote
// caller sees, not a hand-rolled approximation of it.
package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"localalias/internal/client"
	"localalias/internal/drivergen"
	"localalias/internal/service"
)

// newTestServer boots a daemon on an httptest listener and returns it
// with a client configured for fast retries (tests should not spend
// wall-clock on production backoff).
func newTestServer(t *testing.T, opts service.ServerOptions) (*service.Server, *client.Client) {
	t.Helper()
	s := service.NewServer(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, client.Options{
		Retry: client.RetryPolicy{MaxAttempts: 1},
	})
	return s, c
}

// rawPost bypasses the typed client for requests the client cannot (by
// design) produce: malformed JSON, wrong methods, unknown shapes.
func rawPost(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

// wantAPIError asserts err is an *client.APIError with the given
// status and canonical code, and returns it.
func wantAPIError(t *testing.T, err error, status int, code string) *client.APIError {
	t.Helper()
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("error = %v (%T); want *client.APIError", err, err)
	}
	if apiErr.Status != status || apiErr.Err.Code != code {
		t.Fatalf("got status %d code %q; want %d %q", apiErr.Status, apiErr.Err.Code, status, code)
	}
	return apiErr
}

// TestServerAnalyzeRoundTrip: a cold request misses the cache, an
// identical resubmission hits it, and the hit's body is byte-identical
// to the cold run's — the wire contract the cache depends on.
func TestServerAnalyzeRoundTrip(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{})
	req := service.AnalyzeRequest{Module: "clean.mc", Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}}

	coldBody, coldMeta, err := c.AnalyzeRaw(context.Background(), &req)
	if err != nil {
		t.Fatalf("cold AnalyzeRaw: %v", err)
	}
	if coldMeta.Cache != "miss" {
		t.Errorf("cold X-Lna-Cache = %q, want miss", coldMeta.Cache)
	}
	if want := service.CacheKey(&req); coldMeta.CacheKey != want {
		t.Errorf("X-Lna-Cache-Key = %q, want %q", coldMeta.CacheKey, want)
	}
	var parsed service.AnalyzeResponse
	if err := json.Unmarshal(coldBody, &parsed); err != nil {
		t.Fatalf("response is not an AnalyzeResponse: %v\n%s", err, coldBody)
	}
	if parsed.APIVersion != service.APIVersion || !parsed.OK || parsed.Module != "clean.mc" {
		t.Errorf("parsed response = %+v", parsed)
	}
	// The body must equal what the engine + canonical renderer produce
	// directly — the `lna check -json` equivalence.
	direct, err := service.Analyze(context.Background(), &req).MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldBody, direct) {
		t.Errorf("served bytes differ from MarshalCanonical:\n--- served\n%s\n--- direct\n%s", coldBody, direct)
	}

	warmBody, warmMeta, err := c.AnalyzeRaw(context.Background(), &req)
	if err != nil {
		t.Fatalf("warm AnalyzeRaw: %v", err)
	}
	if warmMeta.Cache != "hit" {
		t.Errorf("warm X-Lna-Cache = %q, want hit", warmMeta.Cache)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Error("cache hit served different bytes than the cold run")
	}
}

// TestServerIgnoresUnknownOptions: an option field the daemon does not
// know — here "general", the scope-search switch older clients sent —
// is ignored on input. The request is served with the same bytes and
// under the same cache key as the request without it, so the two share
// one cache entry.
func TestServerIgnoresUnknownOptions(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{})
	spec := drivergen.Corpus()[0]
	src, err := json.Marshal(spec.Source())
	if err != nil {
		t.Fatal(err)
	}
	body := func(opts string) string {
		return fmt.Sprintf(`{"module":%q,"options":{%s},"source":%s}`, spec.Name+".mc", opts, src)
	}
	withResp, withBody := rawPost(t, c.BaseURL()+"/v1/analyze", body(`"mode":"qual","general":true`))
	plainResp, plainBody := rawPost(t, c.BaseURL()+"/v1/analyze", body(`"mode":"qual"`))
	if withResp.StatusCode != http.StatusOK || plainResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d and %d, want 200:\n%s\n%s", withResp.StatusCode, plainResp.StatusCode, withBody, plainBody)
	}
	if !bytes.Equal(withBody, plainBody) {
		t.Errorf("bytes differ with the unknown field:\n--- with\n%s\n--- without\n%s", withBody, plainBody)
	}
	withKey, plainKey := withResp.Header.Get("X-Lna-Cache-Key"), plainResp.Header.Get("X-Lna-Cache-Key")
	if withKey == "" || withKey != plainKey {
		t.Errorf("X-Lna-Cache-Key %q with the unknown field, %q without", withKey, plainKey)
	}
	if got := plainResp.Header.Get("X-Lna-Cache"); got != "hit" {
		t.Errorf("X-Lna-Cache = %q without the unknown field, want hit", got)
	}
}

// TestServerValidation: malformed submissions are refused before they
// cost a worker slot, each with its canonical error code.
func TestServerValidation(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{})
	cases := []struct {
		name string
		req  service.AnalyzeRequest
		code string
	}{
		{"empty source", service.AnalyzeRequest{Module: "m.mc",
			Options: service.AnalyzeOptions{Mode: service.ModeCheck}}, service.CodeBadRequest},
		{"bad mode", service.AnalyzeRequest{Module: "m.mc", Source: "fun f() {}",
			Options: service.AnalyzeOptions{Mode: "optimize"}}, service.CodeBadRequest},
		{"future api version", service.AnalyzeRequest{APIVersion: "v99", Module: "m.mc",
			Source: "fun f() {}", Options: service.AnalyzeOptions{Mode: service.ModeCheck}},
			service.CodeUnsupportedVersion},
	}
	for _, tc := range cases {
		_, _, err := c.Analyze(context.Background(), &tc.req)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		apiErr := wantAPIError(t, err, http.StatusBadRequest, tc.code)
		if apiErr.ExitCode() != service.ExitUsage {
			t.Errorf("%s: exit code %d, want %d", tc.name, apiErr.ExitCode(), service.ExitUsage)
		}
	}
	get, err := http.Get(c.BaseURL() + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 512)
	n, _ := get.Body.Read(body)
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze status = %d, want 405", get.StatusCode)
	}
	if werr := service.DecodeWireError(get.StatusCode, body[:n]); werr.Code != service.CodeMethodNotAllowed {
		t.Errorf("GET error code = %q, want %q", werr.Code, service.CodeMethodNotAllowed)
	}
}

// TestServerErrorBodyShape: every refusal path answers the one
// canonical {"error": {"code", "message"}} shape — no ad-hoc strings.
func TestServerErrorBodyShape(t *testing.T) {
	s, c := newTestServer(t, service.ServerOptions{})
	url := c.BaseURL()
	checks := []struct {
		name   string
		do     func() (*http.Response, []byte)
		status int
		code   string
	}{
		{"malformed json", func() (*http.Response, []byte) {
			return rawPost(t, url+"/v1/analyze", "{not json")
		}, http.StatusBadRequest, service.CodeBadRequest},
		{"draining", func() (*http.Response, []byte) {
			s.SetDraining(true)
			defer s.SetDraining(false)
			return rawPost(t, url+"/v1/analyze", "{}")
		}, http.StatusServiceUnavailable, service.CodeDraining},
		{"empty batch", func() (*http.Response, []byte) {
			return rawPost(t, url+"/v1/batch", `{"requests":[]}`)
		}, http.StatusBadRequest, service.CodeBadRequest},
	}
	for _, tc := range checks {
		resp, body := tc.do()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		var eb service.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == nil {
			t.Errorf("%s: body is not the canonical error shape: %s", tc.name, body)
			continue
		}
		if eb.Error.Code != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, eb.Error.Code, tc.code)
		}
		if eb.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
		if want := service.StatusForCode(eb.Error.Code); want != resp.StatusCode {
			t.Errorf("%s: status %d disagrees with the code table's %d", tc.name, resp.StatusCode, want)
		}
	}
}

func corpusBatch(n int) []service.AnalyzeRequest {
	reqs := make([]service.AnalyzeRequest, 0, n)
	for _, spec := range drivergen.Corpus()[:n] {
		reqs = append(reqs, service.AnalyzeRequest{
			Module: spec.Name + ".mc",
			Source: spec.Source(),
		})
	}
	return reqs
}

// TestServerBatchCacheHitRate: submitting the same 20-module batch
// twice serves the second pass almost entirely from cache (the CI
// smoke criterion is >= 90%; identical submissions should hit 100%).
func TestServerBatchCacheHitRate(t *testing.T) {
	s, c := newTestServer(t, service.ServerOptions{Workers: 4})
	reqs := corpusBatch(20)

	var passes [2]*service.BatchResponse
	// The passes must run in order (a map range would randomize them,
	// making the hit-rate assertions flaky).
	for i := range passes {
		out, _, err := c.Batch(context.Background(), reqs)
		if err != nil {
			t.Fatalf("pass %d: %v", i+1, err)
		}
		passes[i] = out
	}
	first, second := passes[0], passes[1]
	if first.Summary.Modules != 20 || first.Summary.CacheMisses != 20 || first.Summary.Failures != 0 {
		t.Errorf("first pass summary = %+v; want 20 modules, all misses, no failures", first.Summary)
	}
	if second.Summary.CacheHits < 18 {
		t.Errorf("second pass cache hits = %d/20, want >= 18 (90%%)", second.Summary.CacheHits)
	}
	// A cached entry replays the cold pass's exact bytes.
	for i := range second.Results {
		if !second.Results[i].Cached {
			continue
		}
		if !bytes.Equal(first.Results[i].Response, second.Results[i].Response) {
			t.Errorf("entry %d: cache hit bytes differ from the cold run", i)
		}
	}
	if st := s.CacheStats(); st.Hits < 18 || st.Entries == 0 {
		t.Errorf("server cache stats = %+v", st)
	}
}

// TestBatchReplayKeepsSummary: a replayed batch reports the same
// summary as its cold pass apart from the hit and miss counts. Every
// answered entry adds its findings, whether it ran the engine or was
// served from the cache; a rejected entry adds none either time.
func TestBatchReplayKeepsSummary(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{Workers: 2})
	// Corpus modules 340-379 straddle the first buggy modules (352 on),
	// so the batch holds clean modules and modules with findings.
	reqs := corpusBatch(380)[340:]
	reqs = append(reqs, service.AnalyzeRequest{Module: "empty.mc"})

	first, _, err := c.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if first.Summary.Findings == 0 || first.Summary.CacheMisses != 40 || first.Summary.Rejected != 1 {
		t.Fatalf("cold summary = %+v; want findings, 40 misses and 1 rejected", first.Summary)
	}
	second, _, err := c.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if second.Summary.CacheHits != 40 {
		t.Fatalf("replay summary = %+v; want 40 hits", second.Summary)
	}
	cold, replay := first.Summary, second.Summary
	cold.CacheHits, cold.CacheMisses = 0, 0
	replay.CacheHits, replay.CacheMisses = 0, 0
	if replay != cold {
		t.Errorf("replayed summary %+v, cold %+v; want equal apart from hits and misses", second.Summary, first.Summary)
	}
}

// TestServerLargeBatch: the server sustains a 200-module submission —
// every entry answered, none degraded, all distinct cache keys.
func TestServerLargeBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("200-module batch in -short mode")
	}
	_, c := newTestServer(t, service.ServerOptions{})
	out, _, err := c.Batch(context.Background(), corpusBatch(200))
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if out.Summary.Modules != 200 || len(out.Results) != 200 {
		t.Fatalf("summary = %+v, %d results; want 200", out.Summary, len(out.Results))
	}
	if out.Summary.Failures != 0 {
		t.Errorf("%d modules degraded in a healthy batch", out.Summary.Failures)
	}
	keys := make(map[string]bool, 200)
	for i, entry := range out.Results {
		if len(entry.Response) == 0 {
			t.Fatalf("entry %d has no response", i)
		}
		keys[entry.CacheKey] = true
	}
	if len(keys) != 200 {
		t.Errorf("%d distinct cache keys for 200 distinct modules", len(keys))
	}
}

// TestBatchEntriesAreReindentedCanonical pins the byte relation
// between a batch entry and a single answer (docs/API.md): an entry's
// "response" is the canonical /v1/analyze body of its request,
// re-indented at its depth in the batch body — the same JSON tokens,
// each line after the first indented six more spaces, without the
// trailing newline. Whole corpus, one batch.
func TestBatchEntriesAreReindentedCanonical(t *testing.T) {
	if testing.Short() {
		t.Skip("589-module batch in -short mode")
	}
	_, c := newTestServer(t, service.ServerOptions{})
	reqs := corpusBatch(len(drivergen.Corpus()))
	out, _, err := c.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if len(out.Results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(out.Results), len(reqs))
	}
	for i, entry := range out.Results {
		canonical, err := service.Analyze(context.Background(), &reqs[i]).MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Indent(&want, bytes.TrimSuffix(canonical, []byte("\n")), "      ", "  "); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(entry.Response, want.Bytes()) {
			t.Fatalf("%s: batch entry is not the canonical body re-indented at depth 3\n--- entry\n%s\n--- canonical\n%s",
				reqs[i].Module, entry.Response, canonical)
		}
	}
}

// TestServerBatchPanicIsolation: one module panicking degrades only
// its own entry — the batch still answers 200 with a failure record in
// that slot, and the panicking module is never cached.
func TestServerBatchPanicIsolation(t *testing.T) {
	service.SetTestAnalyzeHook(func(ctx context.Context, module string) {
		if module == "bomb.mc" {
			panic("injected server fault")
		}
	})
	defer service.SetTestAnalyzeHook(nil)

	_, c := newTestServer(t, service.ServerOptions{Workers: 2})
	reqs := append(corpusBatch(2), service.AnalyzeRequest{
		Module: "bomb.mc", Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck},
	})
	out, _, err := c.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("batch with a panicking module: %v", err)
	}
	if out.Summary.Failures != 1 {
		t.Errorf("summary failures = %d, want 1", out.Summary.Failures)
	}
	for i, entry := range out.Results {
		var r service.AnalyzeResponse
		if err := json.Unmarshal(entry.Response, &r); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if r.Module == "bomb.mc" {
			if r.Failure == nil || !strings.Contains(r.Failure.Message, "injected server fault") {
				t.Errorf("panicking module lacks its failure record: %+v", r.Failure)
			}
		} else if r.Failure != nil {
			t.Errorf("healthy module %s degraded by its neighbour: %v", r.Module, r.Failure)
		}
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Failures != 1 {
		t.Errorf("failure counter = %d, want 1", st.Failures)
	}
	// Failed responses are never cached: resubmitting the module (with
	// the hook gone) re-runs it and succeeds.
	service.SetTestAnalyzeHook(nil)
	resp, meta, err := c.Analyze(context.Background(), &reqs[2])
	if err != nil {
		t.Fatalf("resubmission: %v", err)
	}
	if meta.Cache != "miss" {
		t.Errorf("resubmitted failed module X-Lna-Cache = %q, want miss", meta.Cache)
	}
	if resp.Failure != nil || !resp.OK {
		t.Errorf("resubmission after the fault cleared = %+v", resp)
	}
}

// TestServerBatchLimits: empty and oversized batches are rejected with
// the canonical bad_request error.
func TestServerBatchLimits(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{})
	for _, tc := range []struct {
		name string
		n    int
	}{{"empty", 0}, {"oversized", service.MaxBatch + 1}} {
		reqs := make([]service.AnalyzeRequest, tc.n)
		for i := range reqs {
			reqs[i] = service.AnalyzeRequest{Module: fmt.Sprintf("m%d.mc", i), Source: "fun f() {}"}
		}
		_, _, err := c.Batch(context.Background(), reqs)
		if err == nil {
			t.Errorf("%s batch accepted", tc.name)
			continue
		}
		wantAPIError(t, err, http.StatusBadRequest, service.CodeBadRequest)
	}
}

// TestServerBatchPerEntryAdmission: a batch mixing healthy and
// inadmissible modules answers 200 with per-entry errors in the bad
// slots — the batch never fails whole for one bad request.
func TestServerBatchPerEntryAdmission(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{Workers: 2})
	reqs := []service.AnalyzeRequest{
		{Module: "ok1.mc", Source: service.CleanCheckSrc, Options: service.AnalyzeOptions{Mode: service.ModeCheck}},
		{Module: "no-source.mc", Options: service.AnalyzeOptions{Mode: service.ModeCheck}},
		{Module: "bad-mode.mc", Source: service.CleanCheckSrc, Options: service.AnalyzeOptions{Mode: "optimize"}},
		{Module: "old-client.mc", Source: service.CleanCheckSrc, APIVersion: "v0",
			Options: service.AnalyzeOptions{Mode: service.ModeCheck}},
		{Module: "ok2.mc", Source: service.CleanCheckSrc, Options: service.AnalyzeOptions{Mode: service.ModeInfer}},
	}
	out, meta, err := c.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	wantCodes := []string{"", service.CodeBadRequest, service.CodeBadRequest, service.CodeUnsupportedVersion, ""}
	for i, want := range wantCodes {
		got := out.Results[i]
		switch {
		case want == "":
			if got.Error != nil {
				t.Errorf("entry %d: unexpected error %v", i, got.Error)
			}
			if len(got.Response) == 0 {
				t.Errorf("entry %d: healthy module got no response", i)
			}
		default:
			if got.Error == nil || got.Error.Code != want {
				t.Errorf("entry %d: error = %+v, want code %q", i, got.Error, want)
			}
			if len(got.Response) != 0 {
				t.Errorf("entry %d: rejected module carries a response", i)
			}
		}
	}
	if out.Summary.Rejected != 3 || out.Summary.CacheMisses != 2 {
		t.Errorf("summary = %+v; want rejected=3 misses=2", out.Summary)
	}
	if meta.Cache != "miss,error,error,error,miss" {
		t.Errorf("X-Lna-Cache = %q; want index-aligned dispositions", meta.Cache)
	}
}

// TestServerBackpressure: with one worker and a queue depth of one,
// a second concurrent request is refused with 429 + Retry-After
// instead of queuing unboundedly.
func TestServerBackpressure(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	service.SetTestAnalyzeHook(func(ctx context.Context, module string) {
		if module == "slow.mc" {
			entered <- struct{}{}
			<-block
		}
	})
	defer func() { service.SetTestAnalyzeHook(nil); close(block) }()

	_, c := newTestServer(t, service.ServerOptions{Workers: 1, QueueDepth: 1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.Analyze(context.Background(), &service.AnalyzeRequest{
			Module: "slow.mc", Source: service.CleanCheckSrc,
			Options: service.AnalyzeOptions{Mode: service.ModeCheck}})
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the analysis hook")
	}

	// The raw round trip exposes the refusal headers the retrying
	// client would otherwise consume.
	body, _ := json.Marshal(service.AnalyzeRequest{
		Module: "fast.mc", Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}})
	res, err := c.RoundTrip(context.Background(), "/v1/analyze", body)
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	if res.Status != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429: %s", res.Status, res.Body)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Error("429 lacks a Retry-After header")
	}
	if werr := res.WireError(); werr.Code != service.CodeQueueFull {
		t.Errorf("429 code = %q, want %q", werr.Code, service.CodeQueueFull)
	}
	block <- struct{}{}
	<-done

	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected == 0 {
		t.Error("rejected counter not incremented")
	}
}

// TestServerDraining: once draining, new submissions get 503 while
// health reports the state.
func TestServerDraining(t *testing.T) {
	s, c := newTestServer(t, service.ServerOptions{})
	s.SetDraining(true)
	_, _, err := c.Analyze(context.Background(), &service.AnalyzeRequest{
		Module: "m.mc", Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}})
	wantAPIError(t, err, http.StatusServiceUnavailable, service.CodeDraining)
	_, _, err = c.Batch(context.Background(), corpusBatch(1))
	wantAPIError(t, err, http.StatusServiceUnavailable, service.CodeDraining)
	hs, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hs.Status != "draining" {
		t.Errorf("health status = %q, want draining", hs.Status)
	}
}

// TestServerStatsEndpoint: the stats snapshot reflects served traffic.
func TestServerStatsEndpoint(t *testing.T) {
	_, c := newTestServer(t, service.ServerOptions{Workers: 2, CacheEntries: 8})
	req := service.AnalyzeRequest{Module: "m.mc", Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}}
	for i := 0; i < 2; i++ {
		if _, _, err := c.AnalyzeRaw(context.Background(), &req); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 || st.Requests != 2 || st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("stats = %+v; want workers=2 requests=2 cache hits=1 misses=1", st)
	}
}

// TestListenAndServeGracefulDrain: the daemon binds a free port,
// serves, and drains cleanly when its context is cancelled.
func TestListenAndServeGracefulDrain(t *testing.T) {
	s := service.NewServer(service.ServerOptions{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- s.ListenAndServe(ctx, "127.0.0.1:0", func(addr string) { addrCh <- addr })
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	c := client.New("http://"+addr, client.Options{Retry: client.RetryPolicy{MaxAttempts: 1}})
	resp, _, err := c.Analyze(ctx, &service.AnalyzeRequest{
		Module: "m.mc", Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}})
	if err != nil {
		t.Fatalf("analyze before drain: %v", err)
	}
	if !resp.OK {
		t.Fatalf("analyze before drain not OK: %+v", resp)
	}
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain")
	}
}

// TestServerBatchPanicIsolationParallel: one module panicking
// mid-analysis degrades only its own batch entry; its neighbours,
// analyzed concurrently on the daemon's worker pool, still answer
// healthily.
func TestServerBatchPanicIsolationParallel(t *testing.T) {
	service.SetTestAnalyzeHook(func(ctx context.Context, module string) {
		if module == "bomb.mc" {
			panic("injected batch fault")
		}
	})
	defer service.SetTestAnalyzeHook(nil)

	_, c := newTestServer(t, service.ServerOptions{Workers: 2})
	reqs := corpusBatch(8)
	reqs = append(reqs[:4], append([]service.AnalyzeRequest{{
		Module: "bomb.mc", Source: service.CleanCheckSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck},
	}}, reqs[4:]...)...)

	out, _, err := c.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if out.Summary.Failures != 1 {
		t.Errorf("summary failures = %d, want exactly the injected one", out.Summary.Failures)
	}
	for i, entry := range out.Results {
		var r service.AnalyzeResponse
		if err := json.Unmarshal(entry.Response, &r); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		switch r.Module {
		case "bomb.mc":
			if r.Failure == nil || !strings.Contains(r.Failure.Message, "injected batch fault") {
				t.Errorf("panicking module lacks its failure record: %+v", r.Failure)
			}
		default:
			if r.Failure != nil {
				t.Errorf("healthy module %s degraded by its neighbour: %v", r.Module, r.Failure)
			}
		}
	}
}
