package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"localalias/internal/client"
	"localalias/internal/obs"
	"localalias/internal/service"
)

// Gateway defaults.
const (
	// DefaultMaxInflight bounds concurrently-admitted single-module
	// requests across the gateway; one more and it answers 429, the
	// same backpressure contract the daemon applies at its own queue.
	DefaultMaxInflight = 256
	// DefaultRetries is how many additional backends a failed request
	// walks along the ring (so a request touches at most 1+DefaultRetries
	// replicas).
	DefaultRetries = 2
	// requestTimeout bounds one forwarded request, mirroring the
	// daemon's analysis deadline.
	requestTimeout = 2 * time.Minute
)

// Options configures a Gateway.
type Options struct {
	// Backends are the replica base URLs (e.g. "http://127.0.0.1:8347").
	// At least one is required.
	Backends []string
	// HealthInterval is the period between health sweeps
	// (0 = DefaultHealthInterval).
	HealthInterval time.Duration
	// MaxInflight bounds admitted single-module requests
	// (0 = DefaultMaxInflight).
	MaxInflight int
	// Retries is how many ring successors a failed request tries after
	// its owner (0 = DefaultRetries; negative = no retries).
	Retries int
	// AccessLog, when non-nil, logs one line per proxied request.
	AccessLog *service.AccessLogger
	// TraceEntries sizes the ring of recently-completed request traces
	// kept for /v1/trace/{id} (0 = service.DefaultTraceEntries;
	// negative disables tracing entirely — the benchmark's "off" arm).
	TraceEntries int
}

func (o Options) withDefaults() Options {
	if o.HealthInterval <= 0 {
		o.HealthInterval = DefaultHealthInterval
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = DefaultMaxInflight
	}
	if o.Retries == 0 {
		o.Retries = DefaultRetries
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.TraceEntries == 0 {
		o.TraceEntries = service.DefaultTraceEntries
	}
	return o
}

// Gateway fronts a pool of analysis daemons: it routes each request by
// its content-hash cache key so identical submissions always reach the
// same replica (result-cache affinity), reroutes along the ring when
// a backend fails, and applies bounded admission before any backend
// is touched.
type Gateway struct {
	opts     Options
	pool     *pool
	inflight chan struct{}

	// traces mirrors the daemon's bounded ring of completed request
	// traces behind /v1/trace/{id}; nil when Options.TraceEntries is
	// negative (tracing off).
	traces *obs.TraceRing

	requests atomic.Uint64 // single-module requests admitted
	batches  atomic.Uint64 // batch requests admitted
	rejected atomic.Uint64 // 429s + 503s answered locally
	retries  atomic.Uint64 // rerouted attempts after a backend failure
}

// New builds a Gateway over opts.Backends. The health sweep starts
// with ListenAndServe (or Start, for embedded use).
func New(opts Options) (*Gateway, error) {
	o := opts.withDefaults()
	if len(o.Backends) == 0 {
		return nil, errors.New("gateway: no backends configured")
	}
	g := &Gateway{
		opts:     o,
		pool:     newPool(o.Backends, o.HealthInterval),
		inflight: make(chan struct{}, o.MaxInflight),
		traces:   obs.NewTraceRing(o.TraceEntries),
	}
	// The counts live on g and its backends; the registry reads them
	// at scrape time, and the newest Gateway in a process wins.
	reg := obs.Default()
	reg.CounterFunc("lna_gateway_requests_total",
		"Single-module requests admitted by the gateway.", g.requests.Load)
	reg.CounterFunc("lna_gateway_batches_total",
		"Batch submissions admitted by the gateway.", g.batches.Load)
	reg.CounterFunc("lna_gateway_rejected_total",
		"Requests the gateway refused locally (admission, no healthy backend).", g.rejected.Load)
	reg.CounterFunc("lna_gateway_retries_total",
		"Forward attempts rerouted to a ring successor after a backend failure.", g.retries.Load)
	reg.GaugeFunc("lna_gateway_backends_healthy",
		"Backends currently in the gateway's hash ring.",
		func() int64 { return int64(g.pool.healthyCount()) })
	reg.GaugeFunc("lna_gateway_ring_size",
		"Virtual-node points on the current hash ring.",
		func() int64 { return int64(g.pool.ringSize()) })
	// The per-backend families are replaced whole: a newer Gateway's
	// backends are the only ones listed.
	var attempts, healthy []obs.FuncSeries
	for _, b := range g.pool.backends {
		for o := range b.attempts {
			attempts = append(attempts, obs.FuncSeries{
				Labels: []string{"backend", b.URL, "outcome", outcomeNames[o]},
				Fn:     func() int64 { return int64(b.attempts[o].Load()) },
			})
		}
		healthy = append(healthy, obs.FuncSeries{
			Labels: []string{"backend", b.URL},
			Fn: func() int64 {
				if b.Healthy() {
					return 1
				}
				return 0
			},
		})
	}
	reg.ReplaceCounterFuncs("lna_gateway_attempts_total",
		"Forward attempts by backend and outcome (ok|error|retryable|transport|canceled).", attempts)
	reg.ReplaceGaugeFuncs("lna_gateway_backend_healthy",
		"Per-backend ring membership (1 = in the ring, 0 = out).", healthy)
	// Health sweeps that change the ring leave a trace of their own, so
	// an operator can see which probe flipped a backend and how long
	// the sweep took. Unchanged sweeps (the steady state, one every
	// HealthInterval) would only evict real request traces from the
	// ring, so they are not kept.
	g.pool.onSweep = func(start time.Time, dur time.Duration, probes []sweepProbe, changed bool) {
		if !changed || g.traces == nil {
			return
		}
		tr := obs.NewTrace("health-sweep")
		tr.Add("health_sweep", "gateway", start, dur,
			"probes", strconv.Itoa(len(probes)), "changed", "true")
		for _, p := range probes {
			kv := []string{"backend", p.url, "healthy", strconv.FormatBool(p.healthy)}
			if p.detail != "" {
				kv = append(kv, "detail", p.detail)
			}
			tr.Add("probe", "health", p.start, p.dur, kv...)
		}
		g.traces.Put(tr)
	}
	return g, nil
}

// newTrace starts a request trace under a propagated context, or
// returns nil (every span call no-ops) when tracing is disabled.
func (g *Gateway) newTrace(module string, sc obs.SpanContext) *obs.Trace {
	if g.traces == nil {
		return nil
	}
	return obs.NewTraceContext(module, sc)
}

// Traces exposes the gateway's trace ring (nil when tracing is off)
// for embedded use and tests.
func (g *Gateway) Traces() *obs.TraceRing { return g.traces }

// Start launches the periodic health sweep (ListenAndServe does this
// for the CLI; embedded users — tests, the bench harness — call it
// directly) and returns g.
func (g *Gateway) Start() *Gateway {
	g.pool.start()
	return g
}

// Shutdown stops the health sweep.
func (g *Gateway) Shutdown() { g.pool.shutdown() }

// Retries reports the per-request reroute budget after option
// normalization (for startup banners and introspection).
func (g *Gateway) Retries() int { return g.opts.Retries }

// MaxInflight reports the admission-control cap after normalization.
func (g *Gateway) MaxInflight() int { return g.opts.MaxInflight }

// CheckNow forces one health sweep (see pool.CheckNow).
func (g *Gateway) CheckNow(ctx context.Context) { g.pool.CheckNow(ctx) }

// BackendStates snapshots the pool for health payloads and tests.
func (g *Gateway) BackendStates() []BackendState { return g.pool.states() }

// Handler returns the gateway's HTTP handler. The endpoint set and
// wire shapes mirror the daemon's exactly — a client cannot tell a
// gateway from a single replica except by the X-Lna-Backend header.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", g.handleAnalyze)
	mux.HandleFunc("/v1/batch", g.handleBatch)
	mux.HandleFunc("/v1/health", g.handleHealth)
	mux.HandleFunc("/v1/stats", g.handleStats)
	mux.HandleFunc("/v1/metrics", service.HandleMetrics)
	mux.HandleFunc("/v1/trace/", g.handleTrace)
	mux.HandleFunc("/v1/fleet", g.handleFleet)
	return mux
}

// fwdResult is one attempt's outcome.
type fwdResult struct {
	res *client.Result
	err error
}

// done reports whether the attempt produced an answer worth relaying:
// any HTTP response except the retryable statuses (429/502/503/504).
func (f fwdResult) done() bool {
	if f.err != nil {
		return false
	}
	switch f.res.Status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return false
	}
	return true
}

// attemptOutcome classifies one forward attempt for the backend's
// attempt counts and the attempt span.
func attemptOutcome(f fwdResult, ctxErr error) int {
	switch {
	case f.err != nil && ctxErr != nil:
		return outcomeCanceled
	case f.err != nil:
		return outcomeTransport
	case !f.done():
		return outcomeRetryable
	case f.res.Status >= 400:
		return outcomeError
	}
	return outcomeOK
}

// tryOne forwards body to one backend with the per-request timeout.
// Transport failures mark the backend unhealthy immediately — unless
// the context was cancelled (a departed client says nothing about
// backend health).
//
// Each attempt gets its own span, opened with an explicit parent
// because a batch's sub-requests run concurrently. The attempt span's
// ID is what the context carries into RoundTrip, so the propagation
// header names it — the replica's whole trace fragment hangs off
// exactly the attempt that produced it.
func (g *Gateway) tryOne(ctx context.Context, path string, body []byte, b *Backend) fwdResult {
	reqCtx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	tr, parent := obs.SpanFromContext(ctx)
	att := tr.StartChild(parent, "attempt", "gateway")
	reqCtx = obs.ContextWithSpan(reqCtx, tr, att.ID())
	res, err := b.client.RoundTrip(reqCtx, path, body)
	f := fwdResult{res: res, err: err}
	out := attemptOutcome(f, ctx.Err())
	b.attempts[out].Add(1)
	if err != nil {
		if ctx.Err() == nil {
			g.pool.markUnhealthy(b, fmt.Sprintf("forward failed: %v", err))
		}
		att.End("backend", b.URL, "outcome", outcomeNames[out])
		return fwdResult{err: err}
	}
	if res.Status == http.StatusServiceUnavailable {
		// Draining (or otherwise refusing) replica: take it out of the
		// ring now; the sweep re-admits it when it reports ok again.
		g.pool.markUnhealthy(b, fmt.Sprintf("backend answered %d", res.Status))
	}
	att.End("backend", b.URL, "outcome", outcomeNames[out], "status", strconv.Itoa(res.Status))
	return f
}

// forward walks candidates in ring order — the owner first, then its
// successors — until an attempt produces a relayable answer. It
// returns that result, the serving backend, and the number of attempts
// spent; err is non-nil only when every candidate failed at the
// transport level or the client departed.
func (g *Gateway) forward(ctx context.Context, path string, body []byte, candidates []*Backend) (*client.Result, *Backend, int, error) {
	tr, parent := obs.SpanFromContext(ctx)
	attempts := 0
	// The retry walk opens lazily: only once a reroute actually happens
	// is there a walk worth a span, and the rerouted attempts parent
	// under it.
	var walk *obs.SpanScope
	walkCtx := ctx
	defer func() {
		if walk != nil {
			walk.End("attempts", strconv.Itoa(attempts))
		}
	}()
	var lastErr error = errors.New("no candidate backends")
	var lastRes *client.Result
	var lastB *Backend
	for _, b := range candidates {
		if attempts > 0 {
			g.retries.Add(1)
			if walk == nil && tr != nil {
				walk = tr.StartChild(parent, "retry_walk", "gateway")
				walkCtx = obs.ContextWithSpan(ctx, tr, walk.ID())
			}
		}
		attempts++
		f := g.tryOne(walkCtx, path, body, b)
		if f.done() {
			return f.res, b, attempts, nil
		}
		if f.err != nil {
			lastErr = f.err
		} else {
			lastRes, lastB = f.res, b
		}
		if ctx.Err() != nil {
			return nil, nil, attempts, ctx.Err()
		}
	}
	if lastRes != nil {
		// Every candidate answered, all retryably (e.g. queue-full
		// across the pool): relay the last answer rather than invent
		// one — its Retry-After is the backend's own advice.
		return lastRes, lastB, attempts, nil
	}
	return nil, nil, attempts, lastErr
}

// relay writes a backend's response through to the client verbatim,
// stamping the gateway's routing headers on top.
func relay(w http.ResponseWriter, res *client.Result, b *Backend, attempts int) {
	for _, h := range []string{
		"Content-Type", "Retry-After",
		"X-Lna-Cache", "X-Lna-Cache-Key", "X-Lna-Trace",
		"X-Lna-Xmodule", "X-Lna-Phases",
	} {
		if v := res.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Lna-Backend", b.URL)
	w.Header().Set("X-Lna-Attempts", strconv.Itoa(attempts))
	w.Header().Set("Content-Length", strconv.Itoa(len(res.Body)))
	w.WriteHeader(res.Status)
	_, _ = w.Write(res.Body)
}

func (g *Gateway) handleAnalyze(rw http.ResponseWriter, r *http.Request) {
	w, entry, done := g.opts.AccessLog.Track(rw, r)
	defer done()
	var req service.AnalyzeRequest
	body, ok := service.ReadRequest(w, r, &req)
	if !ok {
		return
	}
	// Validate at the edge: a malformed request must not cost a backend
	// round trip (or an admission slot).
	if werr := service.ValidateRequest(&req); werr != nil {
		service.WriteWireError(w, werr.Code, "%s", werr.Message)
		return
	}
	entry.Module, entry.Mode = req.Module, req.Options.Mode

	// The gateway's trace adopts a caller-propagated context the same
	// way a replica adopts the gateway's, so a client that stamps
	// X-Lna-Trace-Context sees one trace end to end. The root relay
	// span's ID rides the forwarding context: every attempt parents
	// under it, and RoundTrip re-stamps the header per attempt.
	sc, _ := obs.ParseTraceContext(r.Header.Get(obs.TraceContextHeader))
	tr := g.newTrace(req.Module, sc)
	entry.Trace = tr.ID()
	span := tr.StartSpan("relay", "request")
	defer func() {
		// The backend's cache disposition rides the relay span, so the
		// gateway's own trace explains why a request was cheap.
		span.End("module", req.Module, "status", strconv.Itoa(w.Status()),
			"cache", w.Header().Get("X-Lna-Cache"))
		g.traces.Put(tr)
	}()

	admit := tr.Start("admission", "gateway")
	select {
	case g.inflight <- struct{}{}:
		admit("outcome", "admitted")
		defer func() { <-g.inflight }()
	default:
		admit("outcome", "rejected")
		g.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		service.WriteWireError(w, service.CodeQueueFull,
			"gateway admission queue is full (%d in flight)", g.opts.MaxInflight)
		return
	}
	g.requests.Add(1)

	// Route by the same content-hash key the backends cache under —
	// the whole point of the tier: one key, one replica, one warm cache.
	route := tr.Start("route", "gateway")
	key := service.CacheKey(&req)
	candidates := g.pool.candidates(key, 1+g.opts.Retries)
	route("key", key, "candidates", strconv.Itoa(len(candidates)))
	if len(candidates) == 0 {
		g.rejected.Add(1)
		service.WriteWireError(w, service.CodeBackendUnavailable, "no healthy backends")
		return
	}
	// The original body bytes are forwarded verbatim: the gateway never
	// re-encodes a request, so backend-side validation, hashing, and
	// caching see exactly what the client sent.
	ctx := obs.ContextWithSpan(r.Context(), tr, span.ID())
	res, b, attempts, err := g.forward(ctx, "/v1/analyze", body, candidates)
	if err != nil {
		if r.Context().Err() != nil {
			return // client went away mid-forward
		}
		g.rejected.Add(1)
		service.WriteWireError(w, service.CodeBackendUnavailable,
			"all %d candidate backend(s) failed: %v", len(candidates), err)
		return
	}
	relay(w, res, b, attempts)
	entry.Cache = w.Header().Get("X-Lna-Cache")
	entry.Xmodule = w.Header().Get("X-Lna-Xmodule")
	entry.Backend = b.URL
	entry.Attempts = attempts
}

// batchGroup is the share of a batch whose entries walk the same
// candidates: the owner, then the successors a retry would try.
type batchGroup struct {
	candidates []*Backend
	idx        []int // indices into the submitted requests
}

func (g *Gateway) handleBatch(rw http.ResponseWriter, r *http.Request) {
	w, entry, done := g.opts.AccessLog.Track(rw, r)
	defer done()
	batch, ok := service.ReadBatch(w, r)
	if !ok {
		return
	}
	g.batches.Add(1)
	entry.Modules = len(batch.Requests)

	// One gateway-side trace per batch; the per-group forwards run
	// concurrently, so they parent under the relay span explicitly via
	// the context rather than the default-parent stack.
	sc, _ := obs.ParseTraceContext(r.Header.Get(obs.TraceContextHeader))
	tr := g.newTrace("batch", sc)
	entry.Trace = tr.ID()
	span := tr.StartSpan("relay", "request")
	defer func() {
		span.End("modules", strconv.Itoa(len(batch.Requests)))
		g.traces.Put(tr)
	}()
	ctx := obs.ContextWithSpan(r.Context(), tr, span.ID())

	// Edge admission, mirroring the daemon: inadmissible entries get
	// their per-entry error here and are never forwarded. The rest are
	// grouped by their whole candidate list, so each group's sub-batch
	// takes exactly the walk its entries would take as single requests.
	out, admitted := batch.Admit()
	groups := make(map[string]*batchGroup)
	for _, i := range admitted {
		cands := g.pool.candidates(service.CacheKey(&batch.Requests[i]), 1+g.opts.Retries)
		urls := make([]string, len(cands))
		for k, b := range cands {
			urls[k] = b.URL
		}
		walk := strings.Join(urls, " ")
		grp := groups[walk]
		if grp == nil {
			grp = &batchGroup{candidates: cands}
			groups[walk] = grp
		}
		grp.idx = append(grp.idx, i)
	}
	var (
		wg sync.WaitGroup
		mu sync.Mutex // guards out
	)
	for _, grp := range groups {
		wg.Add(1)
		go func(grp *batchGroup) {
			defer wg.Done()
			sub := g.forwardBatch(ctx, batch.Requests, grp)
			mu.Lock()
			defer mu.Unlock()
			if sub == nil {
				// The walk ended without a usable answer: per-entry
				// errors, never a dropped batch.
				for _, i := range grp.idx {
					out.Results[i].Error = &service.WireError{
						Code:    service.CodeBackendUnavailable,
						Message: "no backend could serve this entry",
					}
					out.Summary.Rejected++
				}
				return
			}
			for j, i := range grp.idx {
				out.Results[i] = sub.Results[j]
			}
			out.Summary.CacheHits += sub.Summary.CacheHits
			out.Summary.CacheMisses += sub.Summary.CacheMisses
			out.Summary.Failures += sub.Summary.Failures
			out.Summary.Findings += sub.Summary.Findings
			out.Summary.Rejected += sub.Summary.Rejected
		}(grp)
	}
	wg.Wait()
	if r.Context().Err() != nil {
		return // client went away mid-batch
	}
	entry.Hits, entry.Misses = out.Summary.CacheHits, out.Summary.CacheMisses
	service.WriteBatch(w, out)
}

// forwardBatch sends one group's sub-batch along the group's walk. It
// returns the decoded answer, or nil unless the walk ends in a 200
// whose results line up with the group.
func (g *Gateway) forwardBatch(ctx context.Context, reqs []service.AnalyzeRequest, grp *batchGroup) *service.BatchResponse {
	sub := service.BatchRequest{Requests: make([]service.AnalyzeRequest, len(grp.idx))}
	for j, i := range grp.idx {
		sub.Requests[j] = reqs[i]
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return nil
	}
	res, _, _, err := g.forward(ctx, "/v1/batch", body, grp.candidates)
	if err != nil || res.Status != http.StatusOK {
		return nil
	}
	var out service.BatchResponse
	if json.Unmarshal(res.Body, &out) != nil || len(out.Results) != len(grp.idx) {
		return nil
	}
	return &out
}

// GatewayHealth is the gateway's /v1/health payload: its own status
// plus the per-backend states.
type GatewayHealth struct {
	Status     string         `json:"status"` // "ok" while >= 1 backend is healthy
	APIVersion string         `json:"api_version"`
	Backends   []BackendState `json:"backends"`
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if g.pool.healthyCount() == 0 {
		status = "unavailable"
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(GatewayHealth{
		Status:     status,
		APIVersion: service.APIVersion,
		Backends:   g.pool.states(),
	})
}

// GatewayStats is the gateway's /v1/stats payload.
type GatewayStats struct {
	Backends        []BackendState `json:"backends"`
	HealthyBackends int            `json:"healthy_backends"`
	MaxInflight     int            `json:"max_inflight"`
	Requests        uint64         `json:"requests"`
	BatchRequests   uint64         `json:"batch_requests"`
	Rejected        uint64         `json:"rejected"`
	Retries         uint64         `json:"retries"`
}

// Stats snapshots the gateway's counters.
func (g *Gateway) Stats() GatewayStats {
	return GatewayStats{
		Backends:        g.pool.states(),
		HealthyBackends: g.pool.healthyCount(),
		MaxInflight:     g.opts.MaxInflight,
		Requests:        g.requests.Load(),
		BatchRequests:   g.batches.Load(),
		Rejected:        g.rejected.Load(),
		Retries:         g.retries.Load(),
	}
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(g.Stats())
}

// handleTrace serves the gateway's fragment of a recorded trace; the
// daemon serves its own under the same route, and the trace fetcher
// merges the two views.
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	service.HandleTraceFrom(g.traces, "gateway", w, r)
}

// FleetReplica is one backend's row in the fleet payload: the
// gateway's health view of it, plus the replica's own /v1/stats
// (absent, with StatsError set, when the replica cannot answer).
type FleetReplica struct {
	URL        string               `json:"url"`
	Healthy    bool                 `json:"healthy"`
	LastError  string               `json:"last_error,omitempty"`
	Forwarded  uint64               `json:"forwarded"`
	Stats      *service.ServerStats `json:"stats,omitempty"`
	StatsError string               `json:"stats_error,omitempty"`
}

// FleetStatus is the /v1/fleet payload: the whole tier in one answer —
// the gateway's own counters and every replica's health and stats.
type FleetStatus struct {
	Gateway  GatewayStats   `json:"gateway"`
	Replicas []FleetReplica `json:"replicas"`
}

// fleetStatsTimeout bounds one replica's /v1/stats fetch within a
// fleet snapshot, so one hung replica cannot stall the whole answer.
const fleetStatsTimeout = 2 * time.Second

// Fleet snapshots the tier: gateway counters plus each replica's
// health state and stats, fetched concurrently.
func (g *Gateway) Fleet(ctx context.Context) FleetStatus {
	states := g.pool.states()
	out := FleetStatus{Gateway: g.Stats(), Replicas: make([]FleetReplica, len(states))}
	var wg sync.WaitGroup
	for i, st := range states {
		out.Replicas[i] = FleetReplica{
			URL: st.URL, Healthy: st.Healthy,
			LastError: st.LastError, Forwarded: st.Forwarded,
		}
		b := g.pool.byURL[st.URL]
		if b == nil {
			continue
		}
		wg.Add(1)
		go func(rep *FleetReplica, b *Backend) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, fleetStatsTimeout)
			defer cancel()
			stats, err := b.client.Stats(sctx)
			if err != nil {
				rep.StatsError = err.Error()
				return
			}
			rep.Stats = stats
		}(&out.Replicas[i], b)
	}
	wg.Wait()
	return out
}

func (g *Gateway) handleFleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		service.WriteWireError(w, service.CodeMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(g.Fleet(r.Context()))
}

// ListenAndServe binds addr (port 0 picks a free port), starts the
// health sweep, reports the bound address through ready (when
// non-nil), and serves until ctx is cancelled, then drains like the
// daemon.
func (g *Gateway) ListenAndServe(ctx context.Context, addr string, ready func(boundAddr string)) error {
	g.Start()
	defer g.Shutdown()
	return service.ListenAndServe(ctx, addr, g.Handler(), ready, nil)
}
