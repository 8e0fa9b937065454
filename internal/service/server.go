package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"localalias/internal/obs"
	"localalias/internal/solve"
)

// Server defaults, overridable through ServerOptions.
const (
	// DefaultCacheEntries bounds the LRU result cache.
	DefaultCacheEntries = 1024
	// DefaultRequestTimeout is the per-module analysis deadline.
	DefaultRequestTimeout = 2 * time.Minute
	// DefaultDrainTimeout bounds graceful shutdown: how long in-flight
	// requests get to finish after SIGTERM before the listener is torn
	// down hard.
	DefaultDrainTimeout = 30 * time.Second
	// DefaultTraceEntries bounds the in-memory ring of recently
	// completed traces behind /v1/trace/{id}.
	DefaultTraceEntries = 256
	// MaxBatch bounds the modules in one /v1/batch submission.
	MaxBatch = 4096
)

// ServerOptions configures a Server. The zero value picks sensible
// defaults for every field.
type ServerOptions struct {
	// Workers is the analysis pool size (0 = GOMAXPROCS): at most this
	// many engine runs hold a slot at once, across all endpoints. A run
	// gives its slot back when AnalyzeBounded returns. After a timeout
	// that is while the abandoned analysis still runs: it keeps its
	// faults analysis goroutine, which takes no other job, until it
	// aborts at its next deadline check or finishes. So after timeouts
	// more than Workers modules can be under analysis at once.
	Workers int
	// CacheEntries is the LRU result-cache capacity in entries
	// (0 = DefaultCacheEntries).
	CacheEntries int
	// QueueDepth bounds admitted-but-unfinished /v1/analyze requests
	// (waiting + running). One more than that and the server answers
	// 429 immediately instead of building an unbounded backlog
	// (0 = 4×Workers). Batches are admitted whole and bounded by
	// MaxBatch instead.
	QueueDepth int
	// RequestTimeout is the per-module analysis deadline
	// (0 = DefaultRequestTimeout; negative = no deadline).
	RequestTimeout time.Duration
	// AccessLog, when non-nil, logs one line per HTTP request
	// (method, path, status, duration, trace ID, cache disposition,
	// phase timings). nil disables access logging.
	AccessLog *AccessLogger
	// TraceEntries bounds the ring buffer of recently completed traces
	// served by /v1/trace/{id} (0 = DefaultTraceEntries; negative
	// disables trace retention entirely — requests still get spans and
	// an X-Lna-Trace ID, but nothing is retained for later fetch).
	TraceEntries int
}

// withDefaults resolves zero fields.
func (o ServerOptions) withDefaults() ServerOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = DefaultCacheEntries
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = DefaultRequestTimeout
	} else if o.RequestTimeout < 0 {
		o.RequestTimeout = 0
	}
	if o.TraceEntries == 0 {
		o.TraceEntries = DefaultTraceEntries
	}
	return o
}

// Server is the resident analysis service behind `lna serve`: a fixed
// worker pool over the shared Analyze engine, an LRU cache of
// canonical response bytes keyed by content hash, request batching,
// bounded-queue backpressure, and graceful drain.
//
// Endpoints (all JSON):
//
//	POST /v1/analyze  one AnalyzeRequest → one AnalyzeResponse.
//	                  Headers: X-Lna-Cache: hit|miss,
//	                  X-Lna-Cache-Key: <sha256>. 429 when the queue
//	                  is full, 503 while draining.
//	POST /v1/batch    {"requests": [...]} → BatchResponse with
//	                  per-entry cache flags and a summary.
//	GET  /v1/health   {"status": "ok"|"draining", ...}
//	GET  /v1/stats    ServerStats snapshot.
type Server struct {
	opts  ServerOptions
	cache *Cache
	// slots is the worker pool: holding a token = running an analysis.
	slots chan struct{}
	// queue bounds admitted single-module requests (waiting+running).
	queue chan struct{}
	// traces retains recently completed request traces for
	// /v1/trace/{id} (nil when TraceEntries is negative).
	traces *obs.TraceRing

	draining atomic.Bool
	requests atomic.Uint64 // single-module requests admitted
	batches  atomic.Uint64 // batch requests admitted
	rejected atomic.Uint64 // 429s + 503s
	failures atomic.Uint64 // responses carrying a Failure record
}

// NewServer builds a Server (see ServerOptions for the knobs).
func NewServer(opts ServerOptions) *Server {
	o := opts.withDefaults()
	s := &Server{
		opts:   o,
		cache:  NewCache(o.CacheEntries),
		slots:  make(chan struct{}, o.Workers),
		queue:  make(chan struct{}, o.QueueDepth),
		traces: obs.NewTraceRing(o.TraceEntries),
	}
	// Each count lives once, on this Server (and its cache); the
	// registry reads it at scrape time. Re-registration binds every
	// series to the newest Server — exactly what a process that
	// rebuilds its server (tests, config reload) wants. The HTTP
	// request count includes cache hits, where the engine's
	// lna_requests_total only sees cold runs.
	reg := obs.Default()
	reg.CounterFunc("lna_http_requests_total",
		"Single-module requests admitted (cache hits included).", s.requests.Load)
	reg.CounterFunc("lna_http_rejected_total",
		"HTTP requests refused with 429 (queue full) or 503 (draining).", s.rejected.Load)
	reg.CounterFunc("lna_http_batches_total",
		"Batch submissions admitted.", s.batches.Load)
	reg.CounterFunc("lna_cache_hits_total", "Result-cache hits.",
		func() uint64 { return s.cache.Stats().Hits })
	reg.CounterFunc("lna_cache_misses_total", "Result-cache misses.",
		func() uint64 { return s.cache.Stats().Misses })
	reg.CounterFunc("lna_cache_evictions_total", "Result-cache LRU evictions.",
		func() uint64 { return s.cache.Stats().Evictions })
	reg.CounterFunc("lna_cache_coalesced_total",
		"Result-cache hits answered by joining a concurrent cold run of the same key (a subset of lna_cache_hits_total).",
		func() uint64 { return s.cache.Stats().Coalesced })
	reg.GaugeFunc("lna_queue_depth",
		"Admitted-but-unfinished single-module requests (waiting + running).",
		func() int64 { return int64(len(s.queue)) })
	reg.GaugeFunc("lna_inflight_analyses",
		"Analyses currently holding a worker slot.",
		func() int64 { return int64(len(s.slots)) })
	reg.GaugeFunc("lna_cache_entries",
		"Entries resident in the result cache.",
		func() int64 { return int64(s.cache.Stats().Entries) })
	return s
}

// Options returns the resolved configuration.
func (s *Server) Options() ServerOptions { return s.opts }

// CacheStats exposes the result cache's accounting.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// ServerStats is the /v1/stats payload.
type ServerStats struct {
	Workers        int        `json:"workers"`
	QueueDepth     int        `json:"queue_depth"`
	Requests       uint64     `json:"requests"`
	BatchRequests  uint64     `json:"batch_requests"`
	Rejected       uint64     `json:"rejected"`
	Failures       uint64     `json:"failures"`
	Draining       bool       `json:"draining"`
	Cache          CacheStats `json:"cache"`
	RequestTimeout string     `json:"request_timeout"`
	// Memo is always nil: the daemon has no solve memo. The field
	// stays only because the steady benchmark (perfbench/fleet.go)
	// still reads it under a nil check; remove both together.
	Memo *solve.MemoStats `json:"memo,omitempty"`
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/health", s.handleHealth)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/metrics", HandleMetrics)
	mux.HandleFunc("/v1/trace/", s.handleTrace)
	return mux
}

// Traces exposes the server's trace ring (nil when retention is
// disabled); the process-level smoke tests reach completed traces
// through it without going over HTTP.
func (s *Server) Traces() *obs.TraceRing { return s.traces }

// HandleTraceFrom serves GET /v1/trace/{id} out of a trace ring,
// attributing the fragment to the named process role. Shared with the
// gateway, whose handler differs only in ring and role.
func HandleTraceFrom(ring *obs.TraceRing, process string, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteWireError(w, CodeMethodNotAllowed, "use GET")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if id == "" || strings.Contains(id, "/") {
		WriteWireError(w, CodeBadRequest, "want /v1/trace/{id}")
		return
	}
	t := ring.Get(id)
	if t == nil {
		WriteWireError(w, CodeNotFound, "trace %q is not in this process's ring (expired or never seen)", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(t.Export(process))
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	HandleTraceFrom(s.traces, "replica", w, r)
}

// ValidateRequest rejects requests the engine cannot serve before they
// cost a queue slot (or, at a gateway, a backend round trip): an
// unsupported api_version, an unknown analysis mode, or empty source.
// nil means the request is admissible.
func ValidateRequest(req *AnalyzeRequest) *WireError {
	if req.APIVersion != "" && req.APIVersion != APIVersion {
		return &WireError{Code: CodeUnsupportedVersion,
			Message: fmt.Sprintf("api_version %q is not supported (this server speaks %q)", req.APIVersion, APIVersion)}
	}
	if !ValidMode(req.Options.Mode) {
		return &WireError{Code: CodeBadRequest,
			Message: fmt.Sprintf("unknown analysis mode %q (want check|infer|confine|qual)", req.Options.Mode)}
	}
	if req.Source == "" {
		return &WireError{Code: CodeBadRequest, Message: "empty source"}
	}
	return nil
}

// cachedRun is one request's outcome through the result cache.
type cachedRun struct {
	data []byte
	key  string
	// hit reports that the bytes came from the cache or from a
	// concurrent cold run of the same key (see Cache.Lookup); resp is
	// set only when this request ran the engine itself.
	hit      bool
	failed   bool // the bytes carry a Failure record
	findings int  // the response's findings count, hit or miss
	resp     *AnalyzeResponse
}

// runCached answers req through the result cache. The lookup comes
// first and needs no worker slot: a hit, or a follower of a concurrent
// identical run, is answered without one. Only the leader that claims
// the key takes a slot and runs the engine. Healthy responses are
// cached; a panic or timeout record may be environment-dependent, so
// it is handed to the followers already waiting and never stored. A
// leader failure caused by its own client going away (ctx done) is not
// shared at all: the flight is abandoned and a live follower runs the
// key instead. The error is ctx's when the caller's own context ended
// first, or a canonical-encoding failure.
func (s *Server) runCached(ctx context.Context, req *AnalyzeRequest) (cachedRun, error) {
	run := cachedRun{key: CacheKey(req)}
	start := time.Now()
	hit, claim, err := s.cache.Lookup(ctx, run.key, req.Obs.ID())
	if err != nil {
		return run, err
	}
	if claim == nil {
		if hit.Coalesced {
			req.Obs.Add(obs.SpanCacheWait, "cache", start, time.Since(start),
				obs.AttrCache, obs.CacheCoalesced, obs.AttrLeaderTrace, hit.Leader)
		}
		if hit.Failed {
			s.failures.Add(1)
		}
		run.data, run.hit, run.failed, run.findings = hit.Data, true, hit.Failed, hit.Findings
		return run, nil
	}
	defer claim.Abandon()
	if !s.acquireSlot(ctx) {
		return run, ctx.Err()
	}
	defer s.releaseSlot()
	run.resp = AnalyzeBounded(ctx, req, s.opts.RequestTimeout)
	run.failed, run.findings = run.resp.Failure != nil, run.resp.Findings
	if run.failed {
		s.failures.Add(1)
	}
	run.data, err = run.resp.MarshalCanonical()
	if err != nil {
		return run, err
	}
	if !run.failed || ctx.Err() == nil {
		claim.Finish(run.data, run.failed, run.findings)
	}
	return run, nil
}

// acquireSlot takes a worker token, honouring request cancellation.
func (s *Server) acquireSlot(ctx context.Context) bool {
	select {
	case s.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (s *Server) releaseSlot() { <-s.slots }

func (s *Server) handleAnalyze(rw http.ResponseWriter, r *http.Request) {
	w, entry, done := s.opts.AccessLog.Track(rw, r)
	defer done()
	if s.draining.Load() {
		s.rejected.Add(1)
		WriteWireError(w, CodeDraining, "server is draining")
		return
	}
	var req AnalyzeRequest
	if _, ok := ReadRequest(w, r, &req); !ok {
		return
	}
	if werr := ValidateRequest(&req); werr != nil {
		WriteWireError(w, werr.Code, "%s", werr.Message)
		return
	}
	entry.Module, entry.Mode = req.Module, req.Options.Mode
	// Backpressure: admission is non-blocking. A full queue means the
	// pool is RequestTimeout-deep in work already; asking the client
	// to retry beats an unbounded backlog.
	select {
	case s.queue <- struct{}{}:
		defer func() { <-s.queue }()
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		WriteWireError(w, CodeQueueFull, "analysis queue is full (%d in flight)", s.opts.QueueDepth)
		return
	}
	s.requests.Add(1)
	// Every daemon request is traced: the spans cost microseconds next
	// to an analysis, and the trace ID is what lets an operator join
	// the access log, the response headers, and an exported trace. A
	// propagated X-Lna-Trace-Context (from a gateway's attempt span)
	// is adopted, so this process's spans join the caller's trace and
	// parent under its attempt — the replica half of distributed
	// tracing. Completed traces land in the ring behind /v1/trace/{id}.
	sc, _ := obs.ParseTraceContext(r.Header.Get(obs.TraceContextHeader))
	ot := obs.NewTraceContext(req.Module, sc)
	req.Obs = ot
	entry.Trace = ot.ID()
	defer s.traces.Put(ot)
	run, err := s.runCached(r.Context(), &req)
	if err != nil {
		if r.Context().Err() != nil {
			return // client went away while waiting
		}
		WriteWireError(w, CodeInternal, "encoding response: %v", err)
		return
	}
	resp := run.resp
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Lna-Cache-Key", run.key)
	w.Header().Set("X-Lna-Trace", ot.ID())
	if run.hit {
		w.Header().Set("X-Lna-Cache", "hit")
		entry.Cache = "hit"
	} else {
		w.Header().Set("X-Lna-Cache", "miss")
		entry.Cache = "miss"
	}
	// The whole-program pass summary of a multi_module request rides
	// in a header, never in the canonical body (hits skipped the pass,
	// so it only appears on misses — like X-Lna-Phases).
	if resp != nil && resp.Xmodule != "" {
		w.Header().Set("X-Lna-Xmodule", resp.Xmodule)
		entry.Xmodule = resp.Xmodule
	}
	// Per-phase timings ride in a header (and the access log), never in
	// the canonical body — cached responses must replay byte-identically.
	if resp != nil && len(resp.PhaseTimings) > 0 {
		entry.Phases = resp.PhaseTimings
		w.Header().Set("X-Lna-Phases", formatPhases(resp.PhaseTimings))
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(run.data)))
	_, _ = w.Write(run.data)
}

// BatchRequest is a corpus-style multi-module submission.
type BatchRequest struct {
	Requests []AnalyzeRequest `json:"requests"`
}

// BatchEntry is one module's outcome within a batch: the canonical
// AnalyzeResponse plus its cache disposition and trace ID. The
// Response bytes are the cacheable canonical shape; Cached, CacheKey,
// and TraceID are batch-envelope metadata and never enter the cache.
type BatchEntry struct {
	Cached   bool            `json:"cached"`
	CacheKey string          `json:"cache_key"`
	TraceID  string          `json:"trace_id"`
	Response json.RawMessage `json:"response,omitempty"`
	// Error is set — and Response empty — when this entry was never
	// analyzed: it failed admission (unknown mode, empty source,
	// unsupported api_version) or, at a gateway, no backend could
	// serve it. A batch therefore distinguishes "analyzed, result
	// empty" from "rejected" per entry instead of failing whole.
	Error *WireError `json:"error,omitempty"`
	// canonical reports that Response holds the daemon's canonical
	// bytes (MarshalCanonical), which WriteBatch splices in as they
	// are.
	canonical bool
}

// BatchSummary aggregates a batch.
type BatchSummary struct {
	Modules     int `json:"modules"`
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	Failures    int `json:"failures"`
	Findings    int `json:"findings"`
	// Rejected counts entries refused without analysis (their
	// BatchEntry.Error says why); they appear in neither the hit nor
	// the miss count.
	Rejected int `json:"rejected"`
}

// BatchResponse answers /v1/batch; Results is index-aligned with the
// submitted Requests.
type BatchResponse struct {
	Results []BatchEntry `json:"results"`
	Summary BatchSummary `json:"summary"`
}

func (s *Server) handleBatch(rw http.ResponseWriter, r *http.Request) {
	w, entry, done := s.opts.AccessLog.Track(rw, r)
	defer done()
	if s.draining.Load() {
		s.rejected.Add(1)
		WriteWireError(w, CodeDraining, "server is draining")
		return
	}
	batch, ok := ReadBatch(w, r)
	if !ok {
		return
	}
	s.batches.Add(1)
	entry.Modules = len(batch.Requests)

	// Fan the admitted entries across the worker pool. Entries stream
	// through the shared slots, so one batch cannot starve concurrent
	// requests of more than its fair share of workers. Each entry gets
	// its own trace, so a slow module inside a big batch is
	// attributable.
	out, admitted := batch.Admit()
	var (
		wg sync.WaitGroup
		mu sync.Mutex // guards the summary counters
	)
	for _, i := range admitted {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := &batch.Requests[i]
			// Batch entries always get fresh per-entry trace IDs (never
			// the propagated context — hundreds of entries sharing one
			// trace ID would make /v1/trace/{id} ambiguous); a gateway's
			// batch spans live in its own gateway-side trace instead.
			ot := obs.NewTrace(req.Module)
			req.Obs = ot
			out.Results[i].TraceID = ot.ID()
			defer s.traces.Put(ot)
			run, err := s.runCached(r.Context(), req)
			if err != nil {
				if r.Context().Err() != nil {
					return // client went away mid-batch
				}
				out.Results[i].Error = &WireError{Code: CodeInternal, Message: err.Error()}
				run.data = nil
			}
			out.Results[i].Cached = run.hit
			out.Results[i].CacheKey = run.key
			out.Results[i].Response = run.data
			out.Results[i].canonical = run.data != nil
			mu.Lock()
			defer mu.Unlock()
			if run.hit {
				out.Summary.CacheHits++
			} else {
				out.Summary.CacheMisses++
			}
			if run.failed {
				out.Summary.Failures++
			}
			out.Summary.Findings += run.findings
		}(i)
	}
	wg.Wait()
	if r.Context().Err() != nil {
		return // client went away mid-batch
	}
	entry.Hits, entry.Misses = out.Summary.CacheHits, out.Summary.CacheMisses
	WriteBatch(w, out)
}

// HealthStatus is the /v1/health payload of one daemon.
type HealthStatus struct {
	Status     string `json:"status"` // "ok" or "draining"
	APIVersion string `json:"api_version"`
	Workers    int    `json:"workers"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(HealthStatus{
		Status:     status,
		APIVersion: APIVersion,
		Workers:    s.opts.Workers,
	})
}

// SetDraining administratively toggles the draining state: while
// draining, /v1/health reports it and new submissions are refused with
// the canonical draining error. Operators use this (via a preStop
// hook) to have a gateway's health checks remove the replica from its
// pool before the process receives SIGTERM; ListenAndServe sets it
// automatically on shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	st := ServerStats{
		Workers:        s.opts.Workers,
		QueueDepth:     s.opts.QueueDepth,
		Requests:       s.requests.Load(),
		BatchRequests:  s.batches.Load(),
		Rejected:       s.rejected.Load(),
		Failures:       s.failures.Load(),
		Draining:       s.draining.Load(),
		Cache:          s.cache.Stats(),
		RequestTimeout: s.opts.RequestTimeout.String(),
	}
	_ = enc.Encode(st)
}

// ListenAndServe binds addr (port 0 picks a free port), reports the
// bound address through ready (when non-nil), and serves until ctx is
// cancelled. Cancellation triggers a graceful drain: new requests are
// refused with 503 while in-flight ones get up to DefaultDrainTimeout
// to finish. The returned error is nil on a clean drain.
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready func(boundAddr string)) error {
	return ListenAndServe(ctx, addr, s.Handler(), ready, func() { s.draining.Store(true) })
}
