package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"localalias/internal/bench"
	"localalias/internal/client"
	"localalias/internal/drivergen"
	"localalias/internal/gateway"
	"localalias/internal/service"
)

// This file measures what distributed tracing costs on the gateway
// relay path: the same warm workload driven through a stack with
// TraceEntries < 0 on both tiers and through a stack with the default
// rings, interleaved off/on so shared-VM drift hits both arms equally.
// The "off" gateway keeps no trace (every span call is a nil no-op),
// but the "off" daemon still traces every request and only drops the
// ring: the arms differ by the gateway's tracing and the daemon's ring
// insert, not by the daemon's own spans. The warm replay is the sensitive arm: a cache hit
// relays in well under a millisecond, so per-request span bookkeeping
// is the largest fraction of the path it will ever be.

// Trace benchmark workload shape: a two-replica fleet (so routing,
// health gauges, and per-attempt spans all run) at a fixed arrival
// rate, with enough rounds that the median pair is meaningful on a
// noisy host.
const (
	traceBenchModules  = 60
	traceBenchRPS      = 150
	traceBenchDuration = 2 * time.Second
	traceBenchRounds   = 5
	traceBenchReplicas = 2
)

// TraceBenchMaxOverheadPct is the acceptance ceiling: tracing must
// cost the median warm relay less than this, in percent.
const TraceBenchMaxOverheadPct = 2.0

// TraceBenchRun is one timed open-loop run through one stack.
type TraceBenchRun struct {
	Tracing bool         `json:"tracing"`
	Report  bench.Report `json:"report"`
}

// TraceBenchPair is one interleaved round: the same warm workload with
// tracing off and tracing on, back to back.
type TraceBenchPair struct {
	Off TraceBenchRun `json:"tracing_off"`
	On  TraceBenchRun `json:"tracing_on"`
}

// TraceBenchReport is the top-level shape of BENCH_trace.json.
type TraceBenchReport struct {
	Description string `json:"description"`
	Platform    string `json:"platform"`
	NumCPU      int    `json:"num_cpu"`
	// HardwareNote qualifies the absolute numbers on hosts where the
	// generator and both tiers share one hardware thread.
	HardwareNote string `json:"hardware_note,omitempty"`

	Modules         int     `json:"modules"`
	TargetRPS       float64 `json:"target_rps"`
	DurationSeconds float64 `json:"duration_seconds"`
	Replicas        int     `json:"replicas"`

	Pairs []TraceBenchPair `json:"pairs"`

	// OffP50MedianMs / OnP50MedianMs are the medians of the per-pair
	// warm p50 latencies; OverheadPct is their relative difference
	// ((on-off)/off, in percent) and must stay under MaxOverheadPct.
	OffP50MedianMs float64 `json:"off_p50_median_ms"`
	OnP50MedianMs  float64 `json:"on_p50_median_ms"`
	OverheadPct    float64 `json:"overhead_pct"`
	MaxOverheadPct float64 `json:"max_overhead_pct"`
}

// tracedStack boots a two-tier stack with the given TraceEntries
// setting applied to the gateway and every replica (negative turns
// the gateway's tracing off and drops the replicas' trace rings).
func tracedStack(n, traceEntries int) (*client.Client, func(), error) {
	var closers []func()
	shutdown := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	urls := make([]string, n)
	for i := range urls {
		ts := httptest.NewServer(service.NewServer(service.ServerOptions{
			TraceEntries: traceEntries,
		}).Handler())
		closers = append(closers, ts.Close)
		urls[i] = ts.URL
	}
	g, err := gateway.New(gateway.Options{Backends: urls, TraceEntries: traceEntries})
	if err != nil {
		shutdown()
		return nil, nil, err
	}
	gts := httptest.NewServer(g.Start().Handler())
	closers = append(closers, gts.Close, g.Shutdown)
	return client.New(gts.URL, client.Options{}), shutdown, nil
}

// runTraceBench runs one warm open-loop pass through a fresh stack
// with tracing either disabled or at the default ring size.
func runTraceBench(ctx context.Context, tracing bool, reqs []service.AnalyzeRequest) (TraceBenchRun, error) {
	entries := -1
	if tracing {
		entries = 0 // withDefaults resolves 0 to the default ring size
	}
	c, shutdown, err := tracedStack(traceBenchReplicas, entries)
	if err != nil {
		return TraceBenchRun{}, err
	}
	defer shutdown()
	rep, err := bench.Run(ctx, bench.Options{
		Client:   c,
		RPS:      traceBenchRPS,
		Duration: traceBenchDuration,
		Requests: reqs,
		Warm:     true,
	})
	if err != nil {
		return TraceBenchRun{}, err
	}
	if rep.Errors > 0 {
		return TraceBenchRun{}, fmt.Errorf("%d transport errors against an in-process stack (tracing=%v)", rep.Errors, tracing)
	}
	return TraceBenchRun{Tracing: tracing, Report: *rep}, nil
}

// RunTraceBenchJSON runs the tracing-overhead benchmarks and renders
// BENCH_trace.json. progress (when non-nil) receives one line per
// pair.
func RunTraceBenchJSON(progress io.Writer) ([]byte, error) {
	ctx := context.Background()
	reqs := corpusRequests()[:traceBenchModules]
	for i := range reqs {
		reqs[i].Options.Mode = service.ModeCheck
	}
	rep := &TraceBenchReport{
		Description: "Tracing overhead on the gateway relay path: the same warm workload (first " +
			"60 corpus modules, check mode, warm pass then open-loop replay) through a gateway " +
			"fronting 2 replicas with tracing disabled on both tiers (TraceEntries -1: no rings, " +
			"all span calls nil no-ops) and with the default trace rings, interleaved (off, on, ...) " +
			"so shared-VM load drift hits both arms equally; compare within each pair. The warm " +
			"replay is the sensitive configuration — a cache hit relays in well under a millisecond, " +
			"so per-request span bookkeeping is the largest fraction of the path it will ever be. " +
			"overhead_pct is the relative difference of the median per-pair p50 latencies and must " +
			"stay under max_overhead_pct. Regenerate with: " +
			"go run ./cmd/experiments -bench-trace-json BENCH_trace.json",
		Platform: fmt.Sprintf("%s/%s, shared VM (expect run-to-run noise; compare interleaved pairs)",
			runtime.GOOS, runtime.GOARCH),
		NumCPU:          runtime.NumCPU(),
		Modules:         traceBenchModules,
		TargetRPS:       traceBenchRPS,
		DurationSeconds: traceBenchDuration.Seconds(),
		Replicas:        traceBenchReplicas,
		MaxOverheadPct:  TraceBenchMaxOverheadPct,
	}
	if rep.NumCPU < 2 {
		rep.HardwareNote = fmt.Sprintf(
			"measured on a %d-hardware-thread host: generator, gateway, and both replicas share "+
				"the CPU, so absolute latencies are inflated; the off/on comparison within each "+
				"interleaved pair is what the overhead bound is computed from.", rep.NumCPU)
	}

	var offP50s, onP50s []float64
	for round := 0; round < traceBenchRounds; round++ {
		off, err := runTraceBench(ctx, false, reqs)
		if err != nil {
			return nil, fmt.Errorf("round %d (tracing off): %w", round, err)
		}
		on, err := runTraceBench(ctx, true, reqs)
		if err != nil {
			return nil, fmt.Errorf("round %d (tracing on): %w", round, err)
		}
		rep.Pairs = append(rep.Pairs, TraceBenchPair{Off: off, On: on})
		offP50s = append(offP50s, off.Report.LatencyMsP50)
		onP50s = append(onP50s, on.Report.LatencyMsP50)
		if progress != nil {
			fmt.Fprintf(progress, "  pair %d/%d  off p50 %.3fms  on p50 %.3fms\n",
				round+1, traceBenchRounds, off.Report.LatencyMsP50, on.Report.LatencyMsP50)
		}
	}
	rep.OffP50MedianMs = median(offP50s)
	rep.OnP50MedianMs = median(onP50s)
	if rep.OffP50MedianMs > 0 {
		rep.OverheadPct = round2(100 * (rep.OnP50MedianMs - rep.OffP50MedianMs) / rep.OffP50MedianMs)
	}
	return json.MarshalIndent(rep, "", "  ")
}

// corpusRequests renders the 589-module corpus as analyze requests
// (default mode: the full three-mode qual experiment, like the
// experiment driver submits). The trace benchmark replays a prefix.
func corpusRequests() []service.AnalyzeRequest {
	specs := drivergen.Corpus()
	reqs := make([]service.AnalyzeRequest, len(specs))
	for i, s := range specs {
		reqs[i] = service.AnalyzeRequest{Module: s.Name + ".mc", Source: s.Source()}
	}
	return reqs
}

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func round2(x float64) float64 {
	return float64(int64(x*100+0.5)) / 100
}
