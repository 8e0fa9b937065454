// Failure-mode and differential tests for the gateway tier, driven
// through internal/client like any remote caller. The backends are
// real in-process daemons behind a switchable proxy wrapper that can
// delay traffic (client-departure test) or kill connections outright
// (death and reroute tests) — so every failure the gateway handles here
// is a transport-level fact, not a mock's opinion.
package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"localalias/internal/client"
	"localalias/internal/drivergen"
	"localalias/internal/gateway"
	"localalias/internal/obs"
	"localalias/internal/service"
)

const checkSrc = `fun f(x: ref int): int {
    restrict y = x {
        return *y;
    }
    return 0;
}
`

// wrapper fronts one replica and injects faults on demand.
type wrapper struct {
	inner http.Handler
	// delayNs, when > 0, sleeps every /v1/analyze and /v1/batch request
	// (health stays fast, so the replica looks alive but slow).
	delayNs atomic.Int64
	// dead, when set, kills every connection at the TCP level — the
	// closest in-process stand-in for a crashed replica.
	dead atomic.Bool
	// killNextBatch arms a one-shot: the next /v1/batch request flips
	// dead and drops its connection mid-request.
	killNextBatch atomic.Bool
	// gate, when set, parks every /v1/analyze request until the
	// channel closes.
	gate atomic.Pointer[chan struct{}]
}

func (w *wrapper) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if w.killNextBatch.Load() && r.URL.Path == "/v1/batch" && w.killNextBatch.CompareAndSwap(true, false) {
		w.dead.Store(true)
	}
	if w.dead.Load() {
		if hj, ok := rw.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic("wrapper: cannot hijack connection to simulate death")
	}
	if g := w.gate.Load(); g != nil && r.URL.Path == "/v1/analyze" {
		<-*g
	}
	if d := w.delayNs.Load(); d > 0 && (r.URL.Path == "/v1/analyze" || r.URL.Path == "/v1/batch") {
		time.Sleep(time.Duration(d))
	}
	w.inner.ServeHTTP(rw, r)
}

type replica struct {
	srv  *service.Server
	ts   *httptest.Server
	wrap *wrapper
}

// newCluster boots n wrapped daemons and a gateway over them. The
// health interval is an hour: sweeps happen only through CheckNow, so
// every membership change in a test is explicit and deterministic.
func newCluster(t *testing.T, n int, opts gateway.Options) (*gateway.Gateway, *client.Client, []*replica) {
	t.Helper()
	reps := make([]*replica, n)
	urls := make([]string, n)
	for i := range reps {
		srv := service.NewServer(service.ServerOptions{Workers: 2})
		w := &wrapper{inner: srv.Handler()}
		ts := httptest.NewServer(w)
		t.Cleanup(ts.Close)
		reps[i] = &replica{srv: srv, ts: ts, wrap: w}
		urls[i] = ts.URL
	}
	opts.Backends = urls
	if opts.HealthInterval == 0 {
		opts.HealthInterval = time.Hour
	}
	g, err := gateway.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(g.Handler())
	t.Cleanup(gts.Close)
	c := client.New(gts.URL, client.Options{Retry: client.RetryPolicy{MaxAttempts: 1}})
	return g, c, reps
}

func corpusRequests(n int) []service.AnalyzeRequest {
	reqs := make([]service.AnalyzeRequest, 0, n)
	for _, spec := range drivergen.Corpus()[:n] {
		reqs = append(reqs, service.AnalyzeRequest{Module: spec.Name + ".mc", Source: spec.Source()})
	}
	return reqs
}

// findOwnedModule probes the gateway until it sees a module routed to
// (or away from, per want) the given backend URL, returning the
// request. The probe warms nothing that matters: routing is a pure
// function of the cache key.
func findOwnedModule(t *testing.T, c *client.Client, url string, owned bool) service.AnalyzeRequest {
	t.Helper()
	for i := 0; i < 64; i++ {
		req := service.AnalyzeRequest{
			Module: fmt.Sprintf("probe-%02d.mc", i), Source: checkSrc,
			Options: service.AnalyzeOptions{Mode: service.ModeCheck}}
		_, meta, err := c.AnalyzeRaw(context.Background(), &req)
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		if (meta.Backend == url) == owned {
			return req
		}
	}
	t.Fatalf("no probe module routed with owned=%v for %s in 64 tries", owned, url)
	return service.AnalyzeRequest{}
}

// TestGatewayAnalyzeByteIdentity: every corpus module served through
// the gateway answers byte-identically to a direct engine run — the
// acceptance criterion that makes the tier transparent. Full
// 589-module corpus; -short covers a 60-module prefix.
func TestGatewayAnalyzeByteIdentity(t *testing.T) {
	specs := drivergen.Corpus()
	if testing.Short() {
		specs = specs[:60]
	}
	_, c, reps := newCluster(t, 2, gateway.Options{})
	served := map[string]int{}
	for _, spec := range specs {
		req := service.AnalyzeRequest{Module: spec.Name + ".mc", Source: spec.Source()}
		viaGateway, meta, err := c.AnalyzeRaw(context.Background(), &req)
		if err != nil {
			t.Fatalf("%s via gateway: %v", spec.Name, err)
		}
		direct, err := service.Analyze(context.Background(), &req).MarshalCanonical()
		if err != nil {
			t.Fatalf("%s direct: %v", spec.Name, err)
		}
		if !bytes.Equal(viaGateway, direct) {
			t.Fatalf("%s: gateway bytes differ from direct analysis\n--- gateway\n%s\n--- direct\n%s",
				spec.Name, viaGateway, direct)
		}
		if meta.Backend == "" {
			t.Fatalf("%s: response lacks X-Lna-Backend", spec.Name)
		}
		if want := service.CacheKey(&req); meta.CacheKey != want {
			t.Fatalf("%s: relayed cache key %q != %q", spec.Name, meta.CacheKey, want)
		}
		served[meta.Backend]++
	}
	if len(served) != 2 {
		t.Errorf("corpus landed on %d backend(s), want both: %v", len(served), served)
	}
	for _, r := range reps {
		if r.wrap.dead.Load() {
			t.Error("a replica died during a healthy run")
		}
	}
}

// TestGatewayBatchByteIdentity: a 200-module batch through the gateway
// carries per-entry response bytes identical to a direct daemon's
// batch, with matching summaries.
func TestGatewayBatchByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("200-module batch in -short mode")
	}
	_, gc, _ := newCluster(t, 2, gateway.Options{})
	direct := service.NewServer(service.ServerOptions{Workers: 2})
	dts := httptest.NewServer(direct.Handler())
	defer dts.Close()
	dc := client.New(dts.URL, client.Options{})

	reqs := corpusRequests(200)
	viaGateway, _, err := gc.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("gateway batch: %v", err)
	}
	viaDaemon, _, err := dc.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("direct batch: %v", err)
	}
	if viaGateway.Summary.Modules != 200 || viaGateway.Summary.Failures != 0 || viaGateway.Summary.Rejected != 0 {
		t.Fatalf("gateway summary = %+v", viaGateway.Summary)
	}
	for i := range reqs {
		gw, dm := viaGateway.Results[i], viaDaemon.Results[i]
		if !bytes.Equal(gw.Response, dm.Response) {
			t.Errorf("entry %d (%s): gateway response bytes differ from direct daemon",
				i, reqs[i].Module)
		}
		if gw.CacheKey != dm.CacheKey {
			t.Errorf("entry %d: cache key differs through the gateway", i)
		}
	}
	if viaGateway.Summary.CacheMisses != viaDaemon.Summary.CacheMisses ||
		viaGateway.Summary.Findings != viaDaemon.Summary.Findings {
		t.Errorf("summaries diverge: gateway %+v vs daemon %+v", viaGateway.Summary, viaDaemon.Summary)
	}
}

// TestGatewayCacheAffinity: replaying a batch through a 2-replica
// gateway hits every entry on the second pass — consistent hashing
// sends each key back to the replica that cached it, so the hit rate
// is no worse than a single daemon's.
func TestGatewayCacheAffinity(t *testing.T) {
	g, gc, reps := newCluster(t, 2, gateway.Options{})
	reqs := corpusRequests(40)

	first, _, err := gc.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if first.Summary.CacheMisses != 40 {
		t.Fatalf("first pass summary = %+v; want 40 misses", first.Summary)
	}
	second, _, err := gc.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	// Single-daemon baseline for the same replay.
	direct := service.NewServer(service.ServerOptions{Workers: 2})
	dts := httptest.NewServer(direct.Handler())
	defer dts.Close()
	dc := client.New(dts.URL, client.Options{})
	if _, _, err := dc.Batch(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	baseline, _, err := dc.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if second.Summary.CacheHits < baseline.Summary.CacheHits {
		t.Errorf("gateway replay hit %d/40; single daemon hit %d/40 — affinity lost",
			second.Summary.CacheHits, baseline.Summary.CacheHits)
	}
	if second.Summary.CacheHits != 40 {
		t.Errorf("gateway replay hit %d/40; identical resubmission should hit fully", second.Summary.CacheHits)
	}
	// Both replicas must actually share the load for affinity to mean
	// anything.
	for _, st := range g.BackendStates() {
		if st.Forwarded == 0 {
			t.Errorf("backend %s served nothing in a 40-module corpus", st.URL)
		}
	}
	_ = reps
}

// TestAnswersDeclareLength: /v1/analyze and /v1/batch answers carry
// a Content-Length at both tiers, also when they are too large for the
// HTTP server to set one by itself, so the client reads them into one
// buffer. The gateway relays the daemon's analyze bytes unchanged, and
// a batch answer is the bytes a two-space json.Encoder writes.
func TestAnswersDeclareLength(t *testing.T) {
	_, gc, reps := newCluster(t, 1, gateway.Options{})
	var name, src string
	for _, spec := range drivergen.Corpus() {
		if s := spec.Source(); len(s) > len(src) {
			name, src = spec.Name, s
		}
	}
	analyze, err := json.Marshal(service.AnalyzeRequest{
		Module: name + ".mc", Source: src,
		Options: service.AnalyzeOptions{Mode: service.ModeInfer},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := json.Marshal(service.BatchRequest{Requests: corpusRequests(40)})
	if err != nil {
		t.Fatal(err)
	}
	var answers [][]byte
	for _, base := range []string{reps[0].ts.URL, gc.BaseURL()} {
		answers = append(answers, postDeclared(t, base+"/v1/analyze", analyze))

		data := postDeclared(t, base+"/v1/batch", batch)
		var out service.BatchResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		e := json.NewEncoder(&enc)
		e.SetIndent("", "  ")
		if err := e.Encode(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, enc.Bytes()) {
			t.Errorf("%s: the batch answer differs from its json.Encoder copy", base)
		}
	}
	if !bytes.Equal(answers[0], answers[1]) {
		t.Error("the gateway relayed different bytes than the daemon answered")
	}
}

// postDeclared posts body to url and returns the answer, failing
// unless it is a 200 whose Content-Length equals its size.
func postDeclared(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d, %v", url, resp.StatusCode, err)
	}
	if len(data) < 16<<10 {
		t.Fatalf("%s: a %d-byte answer is too small to show the header", url, len(data))
	}
	if resp.ContentLength != int64(len(data)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("%s: Content-Length %d, transfer encoding %v for a %d-byte answer",
			url, resp.ContentLength, resp.TransferEncoding, len(data))
	}
	return data
}

// TestGatewayValidationAtEdge: inadmissible requests are refused by
// the gateway itself — the canonical error comes back and no backend
// spends a round trip.
func TestGatewayValidationAtEdge(t *testing.T) {
	g, c, _ := newCluster(t, 2, gateway.Options{})
	cases := []struct {
		name string
		req  service.AnalyzeRequest
		code string
	}{
		{"bad mode", service.AnalyzeRequest{Module: "m.mc", Source: "x",
			Options: service.AnalyzeOptions{Mode: "optimize"}}, service.CodeBadRequest},
		{"empty source", service.AnalyzeRequest{Module: "m.mc",
			Options: service.AnalyzeOptions{Mode: service.ModeCheck}}, service.CodeBadRequest},
		{"future version", service.AnalyzeRequest{APIVersion: "v9", Module: "m.mc", Source: "x",
			Options: service.AnalyzeOptions{Mode: service.ModeCheck}}, service.CodeUnsupportedVersion},
	}
	for _, tc := range cases {
		_, _, err := c.Analyze(context.Background(), &tc.req)
		apiErr, ok := err.(*client.APIError)
		if !ok {
			t.Fatalf("%s: err = %v; want *client.APIError", tc.name, err)
		}
		if apiErr.Status != http.StatusBadRequest || apiErr.Err.Code != tc.code {
			t.Errorf("%s: status %d code %q; want 400 %q", tc.name, apiErr.Status, apiErr.Err.Code, tc.code)
		}
	}
	for _, st := range g.BackendStates() {
		if st.Forwarded != 0 {
			t.Errorf("backend %s saw %d forwards from invalid requests", st.URL, st.Forwarded)
		}
	}
	// A batch mixing valid and invalid entries: invalid ones error at
	// the edge, valid ones analyze.
	out, _, err := c.Batch(context.Background(), []service.AnalyzeRequest{
		{Module: "ok.mc", Source: checkSrc, Options: service.AnalyzeOptions{Mode: service.ModeCheck}},
		{Module: "bad.mc", Options: service.AnalyzeOptions{Mode: service.ModeCheck}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Error != nil || len(out.Results[0].Response) == 0 {
		t.Errorf("valid entry degraded: %+v", out.Results[0])
	}
	if out.Results[1].Error == nil || out.Results[1].Error.Code != service.CodeBadRequest {
		t.Errorf("invalid entry error = %+v", out.Results[1].Error)
	}
	if out.Summary.Rejected != 1 {
		t.Errorf("summary rejected = %d, want 1", out.Summary.Rejected)
	}
}

// TestGatewayAdmissionControl: with one admission slot occupied by a
// slow request, the next request is refused with the canonical 429 +
// Retry-After before any backend is touched.
func TestGatewayAdmissionControl(t *testing.T) {
	g, c, reps := newCluster(t, 1, gateway.Options{MaxInflight: 1, Retries: -1})
	reps[0].wrap.delayNs.Store(int64(2 * time.Second))
	slowDone := make(chan error, 1)
	go func() {
		_, _, err := c.Analyze(context.Background(), &service.AnalyzeRequest{
			Module: "slow.mc", Source: checkSrc,
			Options: service.AnalyzeOptions{Mode: service.ModeCheck}})
		slowDone <- err
	}()
	// Wait until the slow request holds the slot.
	deadline := time.After(5 * time.Second)
	for g.Stats().Requests == 0 {
		select {
		case <-deadline:
			t.Fatal("slow request never admitted")
		case <-time.After(5 * time.Millisecond):
		}
	}
	body, _ := json.Marshal(service.AnalyzeRequest{
		Module: "fast.mc", Source: checkSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}})
	res, err := c.RoundTrip(context.Background(), "/v1/analyze", body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", res.Status, res.Body)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Error("429 lacks Retry-After")
	}
	if werr := res.WireError(); werr.Code != service.CodeQueueFull {
		t.Errorf("code = %q, want %q", werr.Code, service.CodeQueueFull)
	}
	reps[0].wrap.delayNs.Store(0)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow request failed: %v", err)
	}
	if g.Stats().Rejected == 0 {
		t.Error("gateway rejected counter did not move")
	}
}

// TestGatewayNoHealthyBackends: when every replica is gone, the
// gateway answers 503 backend_unavailable itself and its health
// endpoint says so.
func TestGatewayNoHealthyBackends(t *testing.T) {
	g, c, reps := newCluster(t, 1, gateway.Options{})
	reps[0].wrap.dead.Store(true)
	g.CheckNow(context.Background())

	_, _, err := c.Analyze(context.Background(), &service.AnalyzeRequest{
		Module: "m.mc", Source: checkSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}})
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("err = %v; want *client.APIError", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.Err.Code != service.CodeBackendUnavailable {
		t.Errorf("got %d %q; want 503 %q", apiErr.Status, apiErr.Err.Code, service.CodeBackendUnavailable)
	}
	resp, err := http.Get(c.BaseURL() + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	var gh gateway.GatewayHealth
	if err := json.NewDecoder(resp.Body).Decode(&gh); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gh.Status != "unavailable" || len(gh.Backends) != 1 || gh.Backends[0].Healthy {
		t.Errorf("health = %+v; want unavailable with 1 unhealthy backend", gh)
	}
	if gh.Backends[0].LastError == "" {
		t.Error("unhealthy backend carries no last_error")
	}
}

// TestGatewayDrainingBackendRemoved: a replica that reports draining
// is removed from the pool on the next sweep, traffic reroutes to the
// survivor, and the replica rejoins once it is healthy again.
func TestGatewayDrainingBackendRemoved(t *testing.T) {
	g, c, reps := newCluster(t, 2, gateway.Options{})
	// A module the draining replica owns, found while it is healthy.
	req := findOwnedModule(t, c, reps[0].ts.URL, true)

	reps[0].srv.SetDraining(true)
	g.CheckNow(context.Background())
	var drainedState gateway.BackendState
	for _, st := range g.BackendStates() {
		if st.URL == reps[0].ts.URL {
			drainedState = st
		}
	}
	if drainedState.Healthy {
		t.Fatal("draining replica still in the pool after a sweep")
	}
	if !strings.Contains(drainedState.LastError, "draining") {
		t.Errorf("last_error = %q; want the draining status", drainedState.LastError)
	}
	// Its keys now land on the survivor.
	_, meta, err := c.AnalyzeRaw(context.Background(), &req)
	if err != nil {
		t.Fatalf("analyze while replica drains: %v", err)
	}
	if meta.Backend != reps[1].ts.URL {
		t.Errorf("rerouted request served by %s; want the survivor %s", meta.Backend, reps[1].ts.URL)
	}

	// Drain ends: the sweep re-admits the replica and ownership returns.
	reps[0].srv.SetDraining(false)
	g.CheckNow(context.Background())
	_, meta, err = c.AnalyzeRaw(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Backend != reps[0].ts.URL {
		t.Errorf("after rejoin, request served by %s; want its owner %s back", meta.Backend, reps[0].ts.URL)
	}
}

// TestGatewayAnalyzeReroutesOnDeath: a request whose owner is dead
// walks the ring to the successor and still answers byte-identically,
// and the dead replica leaves the pool immediately (no sweep needed).
func TestGatewayAnalyzeReroutesOnDeath(t *testing.T) {
	_, c, reps := newCluster(t, 2, gateway.Options{Retries: 1})
	req := findOwnedModule(t, c, reps[0].ts.URL, true)
	reps[0].wrap.dead.Store(true)

	body, meta, err := c.AnalyzeRaw(context.Background(), &req)
	if err != nil {
		t.Fatalf("analyze with dead owner: %v", err)
	}
	if meta.Backend != reps[1].ts.URL {
		t.Errorf("served by %s; want the survivor %s", meta.Backend, reps[1].ts.URL)
	}
	if meta.Attempts != 2 {
		t.Errorf("attempts = %d; want 2 (owner failed, successor served)", meta.Attempts)
	}
	direct, err := service.Analyze(context.Background(), &req).MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, direct) {
		t.Error("rerouted response bytes differ from direct analysis")
	}
}

// TestGatewayBatchSurvivesBackendDeath: a replica dying mid-batch
// (connection dropped while its sub-batch is in flight) costs its
// group one reroute; the batch completes with every entry healthy.
func TestGatewayBatchSurvivesBackendDeath(t *testing.T) {
	g, c, reps := newCluster(t, 2, gateway.Options{Retries: 2})
	reqs := corpusRequests(30)
	for i := range reqs {
		reqs[i].Options.Mode = service.ModeCheck
	}
	// Arm the one-shot: replica 0 drops the connection on its next
	// sub-batch and stays dead.
	reps[0].wrap.killNextBatch.Store(true)

	out, _, err := c.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("batch across a dying replica: %v", err)
	}
	if out.Summary.Modules != 30 || out.Summary.Rejected != 0 || out.Summary.Failures != 0 {
		t.Fatalf("summary = %+v; want 30 healthy modules", out.Summary)
	}
	for i, entry := range out.Results {
		if entry.Error != nil {
			t.Errorf("entry %d carries error %v after reroute", i, entry.Error)
		}
		if len(entry.Response) == 0 {
			t.Errorf("entry %d has no response", i)
		}
	}
	st := g.Stats()
	if st.Retries == 0 {
		t.Error("retry counter did not move though a sub-batch died")
	}
	for _, bs := range g.BackendStates() {
		if bs.URL == reps[0].ts.URL && bs.Healthy {
			t.Error("dead replica still marked healthy")
		}
	}
}

// TestGatewayClientDepartureKeepsBackend: a client that leaves while
// its owner is slow cancels the forward. A canceled attempt is not
// evidence about the backend, and the gateway refused nothing: the
// owner stays in the ring, the rejected counter does not move, and the
// attempt span closes with outcome "canceled".
func TestGatewayClientDepartureKeepsBackend(t *testing.T) {
	g, c, reps := newCluster(t, 2, gateway.Options{})
	req := findOwnedModule(t, c, reps[0].ts.URL, true)
	rejected := g.Stats().Rejected

	reps[0].wrap.delayNs.Store(int64(500 * time.Millisecond))
	defer reps[0].wrap.delayNs.Store(0)
	// The caller's own trace context rides the request, so the gateway's
	// trace takes its ID and the test can find it without a response.
	caller := obs.NewTrace("departing-client")
	call := caller.StartSpan("call", "client")
	ctx, cancel := context.WithTimeout(obs.ContextWithSpan(context.Background(), caller, call.ID()), 50*time.Millisecond)
	defer cancel()
	if _, _, err := c.AnalyzeRaw(ctx, &req); err == nil {
		t.Fatal("analyze outlived its 50ms client deadline against a stalled owner")
	}

	// The gateway files its trace when the handler returns, after every
	// counter it would touch; poll for it.
	deadline := time.Now().Add(2 * time.Second)
	var gt *obs.Trace
	for gt == nil {
		if time.Now().After(deadline) {
			t.Fatalf("gateway ring has no trace %s 2s after the client left", caller.ID())
		}
		time.Sleep(10 * time.Millisecond)
		gt = g.Traces().Get(caller.ID())
	}
	if got := g.Stats().Rejected; got != rejected {
		t.Errorf("rejected = %d after a client departure; want %d", got, rejected)
	}
	for _, bs := range g.BackendStates() {
		if bs.URL == reps[0].ts.URL && !bs.Healthy {
			t.Errorf("stalled owner was evicted by a canceled attempt: %s", bs.LastError)
		}
	}
	var outcomes []string
	for _, s := range gt.Export("gateway").Spans {
		if s.Name != "attempt" {
			continue
		}
		for j := 0; j+1 < len(s.Args); j += 2 {
			if s.Args[j] == "outcome" {
				outcomes = append(outcomes, s.Args[j+1])
			}
		}
	}
	if len(outcomes) != 1 || outcomes[0] != "canceled" {
		t.Errorf("attempt outcomes = %v; want one canceled attempt", outcomes)
	}
}

// TestGatewayStatsEndpoint: the stats payload decodes and reflects
// served traffic.
func TestGatewayStatsEndpoint(t *testing.T) {
	_, c, _ := newCluster(t, 2, gateway.Options{})
	if _, _, err := c.AnalyzeRaw(context.Background(), &service.AnalyzeRequest{
		Module: "s.mc", Source: checkSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.BaseURL() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st gateway.GatewayStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests != 1 || st.HealthyBackends != 2 || len(st.Backends) != 2 {
		t.Errorf("stats = %+v; want 1 request over 2 healthy backends", st)
	}
}

// metricSeries sums the /v1/metrics JSON series of name whose labels
// include every key/value pair in kv.
func metricSeries(t *testing.T, url, name string, kv ...string) uint64 {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Metrics []struct {
			Name   string
			Series []struct {
				Labels map[string]string
				Value  uint64
			}
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, m := range doc.Metrics {
		if m.Name != name {
			continue
		}
	series:
		for _, s := range m.Series {
			for i := 0; i+1 < len(kv); i += 2 {
				if s.Labels[kv[i]] != kv[i+1] {
					continue series
				}
			}
			total += s.Value
		}
	}
	return total
}

// TestGatewayMetricsMatchStats: every count the gateway's /v1/stats
// reports is the count its /v1/metrics reports. Mixed traffic — misses
// and hits, a concurrent identical pair, a batch, a 429 and a reroute
// off a dead owner — moves each of them. Each backend's forwarded
// count is its ok + error + retryable attempts.
func TestGatewayMetricsMatchStats(t *testing.T) {
	g, c, reps := newCluster(t, 2, gateway.Options{MaxInflight: 2, Retries: 1})
	check := func(module string) service.AnalyzeRequest {
		return service.AnalyzeRequest{Module: module, Source: checkSrc,
			Options: service.AnalyzeOptions{Mode: service.ModeCheck}}
	}
	for _, m := range []string{"a.mc", "a.mc", "b.mc"} {
		req := check(m)
		if _, _, err := c.AnalyzeRaw(context.Background(), &req); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Batch(context.Background(), []service.AnalyzeRequest{check("a.mc"), check("c.mc")}); err != nil {
		t.Fatal(err)
	}

	// The pair, parked at its replica, fills the gateway's admission
	// cap, so one more request is refused at the edge.
	gate := make(chan struct{})
	for _, r := range reps {
		r.wrap.gate.Store(&gate)
	}
	before := g.Stats().Requests
	pairDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			req := check("pair.mc")
			_, _, err := c.AnalyzeRaw(context.Background(), &req)
			pairDone <- err
		}()
	}
	deadline := time.After(5 * time.Second)
	for g.Stats().Requests != before+2 {
		select {
		case <-deadline:
			t.Fatal("the pair was never admitted")
		case <-time.After(time.Millisecond):
		}
	}
	body, _ := json.Marshal(check("refused.mc"))
	res, err := c.RoundTrip(context.Background(), "/v1/analyze", body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusTooManyRequests {
		t.Fatalf("third concurrent request: status %d, want 429", res.Status)
	}
	for _, r := range reps {
		r.wrap.gate.Store(nil)
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-pairDone; err != nil {
			t.Fatal(err)
		}
	}

	// A dead owner costs one transport attempt and one reroute.
	req := findOwnedModule(t, c, reps[0].ts.URL, true)
	reps[0].wrap.dead.Store(true)
	if _, meta, err := c.AnalyzeRaw(context.Background(), &req); err != nil || meta.Attempts != 2 {
		t.Fatalf("reroute: attempts %d, err %v; want 2 attempts, no error", meta.Attempts, err)
	}

	st := g.Stats()
	if st.BatchRequests != 1 || st.Rejected != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v; want 1 batch, 1 rejected, 1 retry", st)
	}
	for name, count := range map[string]uint64{
		"lna_gateway_requests_total": st.Requests,
		"lna_gateway_batches_total":  st.BatchRequests,
		"lna_gateway_rejected_total": st.Rejected,
		"lna_gateway_retries_total":  st.Retries,
	} {
		if got := metricSeries(t, c.BaseURL(), name); got != count {
			t.Errorf("%s = %d, /v1/stats says %d", name, got, count)
		}
	}
	for _, b := range st.Backends {
		var answered uint64
		for _, out := range []string{"ok", "error", "retryable"} {
			answered += metricSeries(t, c.BaseURL(), "lna_gateway_attempts_total", "backend", b.URL, "outcome", out)
		}
		if b.Forwarded == 0 || b.Forwarded != answered {
			t.Errorf("backend %s: forwarded %d, ok+error+retryable attempts %d", b.URL, b.Forwarded, answered)
		}
	}
	if got := metricSeries(t, c.BaseURL(), "lna_gateway_attempts_total", "backend", reps[0].ts.URL, "outcome", "transport"); got != 1 {
		t.Errorf("dead owner's transport attempts = %d, want 1", got)
	}
}
