package obs

import (
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Phase identifies a stage of the analysis pipeline. It names the
// per-phase timings, the lna_phase_seconds{phase} histograms (one
// observation per phase per analyzed module), and the phase a
// contained failure is attributed to.
type Phase string

// The pipeline phases, in execution order.
const (
	PhaseGenerate  Phase = "generate"  // corpus source generation (drivergen)
	PhaseParse     Phase = "parse"     // lexing and parsing
	PhaseTypecheck Phase = "typecheck" // standard type checking
	PhaseInfer     Phase = "infer"     // alias-and-effect inference
	PhaseSolve     Phase = "solve"     // constraint solving
	PhaseQual      Phase = "qual"      // flow-sensitive qualifier analysis
)

// Phases returns the pipeline phases in execution order, for code
// that renders per-phase tables in a canonical order.
func Phases() []Phase {
	return []Phase{PhaseGenerate, PhaseParse, PhaseTypecheck, PhaseInfer, PhaseSolve, PhaseQual}
}

// Kind classifies a contained module failure; it labels the
// lna_request_failures_total{kind} counters.
type Kind string

// The failure kinds.
const (
	KindPanic   Kind = "panic"   // a panic was recovered
	KindTimeout Kind = "timeout" // the per-module deadline expired
	KindError   Kind = "error"   // the analysis returned an error
)

// Mode names mirror the service analysis modes.
var modeNames = []string{"check", "infer", "confine", "qual"}

// Span vocabulary of a coalesced cache hit: a request that waited for
// a concurrent cold run of its key records one SpanCacheWait span
// covering the wait, with args AttrCache=CacheCoalesced and
// AttrLeaderTrace=<the trace ID of the run it waited for>, so a cheap
// request is explained by its own trace.
const (
	SpanCacheWait   = "cache.wait"
	AttrCache       = "cache"
	CacheCoalesced  = "coalesced"
	AttrLeaderTrace = "leader_trace"
)

// AppMetrics is the engine's process-wide metric set, registered
// once in the Default registry. Hot paths hold the typed handles
// directly, so recording is an atomic add — no map lookup, no lock.
// Counts that belong to one server instance (its requests, its cache,
// a gateway's attempts) are not here: they live on the instance and
// are bound into the registry with CounterFunc.
type AppMetrics struct {
	// Solver work counters, accumulated once per solve from the
	// per-solve Stats block (not per propagation step — the drain loop
	// stays untouched).
	SolveTotal                *Counter
	SolveAtomsPropagated      *Counter
	SolveIntersectionArrivals *Counter
	SolveCondFirings          *Counter
	SolveUnifications         *Counter
	SolveRecanonicalizations  *Counter

	// Engine accounting: requests by analysis mode, contained
	// failures by kind, and the end-to-end latency distribution.
	requestsByMode map[string]*Counter
	failuresByKind map[Kind]*Counter
	AnalyzeSeconds *Histogram

	// Per-phase latency distributions (parse/typecheck/infer/solve/…).
	phaseSeconds map[Phase]*Histogram
}

var (
	appOnce sync.Once
	app     *AppMetrics
)

// App returns the process-wide metric set, registering it in the
// Default registry on first use.
func App() *AppMetrics {
	appOnce.Do(func() {
		r := Default()
		a := &AppMetrics{
			SolveTotal:                r.Counter("lna_solve_total", "Constraint systems solved."),
			SolveAtomsPropagated:      r.Counter("lna_solve_atoms_propagated_total", "Successful solution-set insertions."),
			SolveIntersectionArrivals: r.Counter("lna_solve_intersection_arrivals_total", "Atoms arriving at intersection nodes."),
			SolveCondFirings:          r.Counter("lna_solve_cond_firings_total", "Conditional constraints fired."),
			SolveUnifications:         r.Counter("lna_solve_unifications_total", "Location unifications observed while solving."),
			SolveRecanonicalizations:  r.Counter("lna_solve_recanonicalizations_total", "Incremental re-canonicalization passes."),
			AnalyzeSeconds:            r.Histogram("lna_analyze_seconds", "End-to-end per-module analysis latency.", nil),
			requestsByMode:            make(map[string]*Counter, len(modeNames)),
			failuresByKind:            make(map[Kind]*Counter),
			phaseSeconds:              make(map[Phase]*Histogram),
		}
		for _, m := range modeNames {
			a.requestsByMode[m] = r.Counter("lna_requests_total", "Analysis requests by mode.", "mode", m)
		}
		for _, k := range []Kind{KindPanic, KindTimeout, KindError} {
			a.failuresByKind[k] = r.Counter("lna_request_failures_total", "Contained per-module failures by kind.", "kind", string(k))
		}
		for _, p := range Phases() {
			a.phaseSeconds[p] = r.Histogram("lna_phase_seconds", "Per-phase analysis latency.", nil, "phase", string(p))
		}
		app = a
	})
	return app
}

// Requests returns the request counter for an analysis mode (nil, and
// therefore a no-op, for unknown modes).
func (a *AppMetrics) Requests(mode string) *Counter { return a.requestsByMode[mode] }

// Failures returns the contained-failure counter for a failure kind.
func (a *AppMetrics) Failures(kind Kind) *Counter { return a.failuresByKind[kind] }

// Phase returns the latency histogram for a pipeline phase.
func (a *AppMetrics) Phase(phase Phase) *Histogram { return a.phaseSeconds[phase] }

// RecordSolve folds one solve's work counters into the global
// registry: a handful of atomic adds, called once per solve so the
// propagation loop itself carries no instrumentation.
func (a *AppMetrics) RecordSolve(atomsPropagated, intersectionArrivals, condFirings, unifications, recanons int) {
	a.SolveTotal.Inc()
	a.SolveAtomsPropagated.Add(uint64(atomsPropagated))
	a.SolveIntersectionArrivals.Add(uint64(intersectionArrivals))
	a.SolveCondFirings.Add(uint64(condFirings))
	a.SolveUnifications.Add(uint64(unifications))
	a.SolveRecanonicalizations.Add(uint64(recanons))
}

// RecordPhase records one phase's elapsed wall clock (no-op for
// phases outside the known set).
func (a *AppMetrics) RecordPhase(phase Phase, d time.Duration) {
	a.phaseSeconds[phase].Observe(d)
}

// ---------------------------------------------------------------------
// Debug handler (pprof + metrics)

// DebugHandler returns the handler served on the opt-in -debug-addr
// listener: the net/http/pprof suite under /debug/pprof/ and the
// Default registry under /metrics (Prometheus text). It is kept off
// the main service listener so profiling endpoints are never exposed
// on the address that serves analysis traffic.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = Default().WritePrometheus(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("lna debug listener: /debug/pprof/ and /metrics\n"))
	})
	return mux
}
