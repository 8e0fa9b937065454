package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"localalias/internal/confine"
	"localalias/internal/core"
	"localalias/internal/drivergen"
	"localalias/internal/faults"
	"localalias/internal/infer"
	"localalias/internal/obs"
	"localalias/internal/qual"
	"localalias/internal/service"
	"localalias/internal/solve"
)

// This file holds the benchmark bodies shared between `go test -bench`
// (the root bench_test.go delegates here) and the experiments
// command's -bench-json mode, which runs them via testing.Benchmark
// and emits machine-readable ns/op — the numbers BENCH_solver.json at
// the repo root records before/after solver changes.

// ScalingProgram builds a program with funcs functions; the first k
// contain an explicit restrict. Program size n grows linearly with
// funcs.
func ScalingProgram(funcs, k int) string {
	var sb strings.Builder
	for i := 0; i < funcs; i++ {
		fmt.Fprintf(&sb, "fun f%d(q: ref int): int {\n", i)
		if i < k {
			fmt.Fprintf(&sb, "    restrict p = q {\n        *p = *p + %d;\n    }\n", i)
		} else {
			fmt.Fprintf(&sb, "    let p = q;\n    *p = *p + %d;\n", i)
		}
		sb.WriteString("    let t = new 1;\n")
		sb.WriteString("    *t = *t + *q;\n")
		sb.WriteString("    return *t;\n}\n\n")
	}
	return sb.String()
}

// BenchSolverPropagation measures inference + solve throughput on a
// 200-function program with let-or-restrict conditional constraints
// (parsing and standard checking excluded).
func BenchSolverPropagation(b *testing.B) {
	src := ScalingProgram(200, 0)
	mod, err := core.LoadModule("scale.mc", src)
	if err != nil {
		benchFatal(b, err)
		return
	}
	for i := 0; i < b.N; i++ {
		res := infer.Run(mod.TInfo, mod.Diags, infer.Options{InferRestrictLets: true})
		sol := solve.Solve(res.Sys)
		if sol.Stats.AtomsPropagated == 0 {
			benchFatal(b, fmt.Errorf("solver propagated no atoms on the scaling program"))
			return
		}
	}
}

// BenchSolverPropagationTraced is BenchSolverPropagation with the
// full observability path enabled: every iteration runs inside a
// phase trace carrying obs spans, the way a daemon request or a
// -trace-out run does. The delta against the plain benchmark bounds
// the cost of tracing; the delta of the plain benchmark against the
// pre-instrumentation baseline bounds the cost of the always-on
// metrics (see BENCH_obs.json).
func BenchSolverPropagationTraced(b *testing.B) {
	src := ScalingProgram(200, 0)
	mod, err := core.LoadModule("scale.mc", src)
	if err != nil {
		benchFatal(b, err)
		return
	}
	for i := 0; i < b.N; i++ {
		tr := faults.NewTrace("scale.mc")
		tr.SetSpans(obs.NewTrace("scale.mc"))
		tr.Enter(faults.PhaseInfer)
		res := infer.Run(mod.TInfo, mod.Diags, infer.Options{InferRestrictLets: true})
		tr.Enter(faults.PhaseSolve)
		sol := solve.Solve(res.Sys)
		tr.Enter(faults.PhaseQual)
		if sol.Stats.AtomsPropagated == 0 {
			benchFatal(b, fmt.Errorf("solver propagated no atoms on the scaling program"))
			return
		}
	}
}

// BenchCorpusSummary measures the full E1 experiment: the three-mode
// analysis of all 589 corpus modules. traced selects the observability
// path (per-module span traces, as under the daemon).
func benchCorpusSummary(b *testing.B, traced bool) {
	specs := drivergen.Corpus()
	var res *CorpusResult
	for i := 0; i < b.N; i++ {
		res = RunCorpus(context.Background(), CorpusOptions{Specs: specs, Traced: traced})
	}
	b.StopTimer()
	if res.Degraded() {
		benchFatal(b, fmt.Errorf("%d of %d modules failed or timed out", res.Failed+res.TimedOut, len(res.Modules)))
		return
	}
	if res.Mismatches != 0 {
		benchFatal(b, fmt.Errorf("%d corpus mismatches", res.Mismatches))
		return
	}
	b.ReportMetric(float64(res.Eliminated), "eliminated")
	b.ReportMetric(float64(res.Potential), "potential")
	b.ReportMetric(res.EliminationRate()*100, "%eliminated")
}

// BenchCorpusSummary is the plain (untraced) corpus benchmark — the
// number BENCH_solver.json tracks.
func BenchCorpusSummary(b *testing.B) { benchCorpusSummary(b, false) }

// BenchCorpusSummaryTraced runs the corpus with per-module span
// traces attached, bounding the daemon's tracing overhead at corpus
// scale.
func BenchCorpusSummaryTraced(b *testing.B) { benchCorpusSummary(b, true) }

// BenchConfineOverhead measures one full analysis of ide_tape (the E4
// module) with or without confine inference.
func BenchConfineOverhead(b *testing.B, withConfine bool) {
	var spec *drivergen.ModuleSpec
	for _, m := range drivergen.Corpus() {
		if m.Name == "ide_tape" {
			spec = m
		}
	}
	if spec == nil {
		benchFatal(b, fmt.Errorf("module ide_tape not found in the corpus"))
		return
	}
	src := spec.Source()
	for i := 0; i < b.N; i++ {
		mod, err := core.LoadModule("ide_tape.mc", src)
		if err != nil {
			benchFatal(b, err)
			return
		}
		if withConfine {
			cres, err := confine.InferAndApply(mod.Prog, mod.Diags, confine.Options{Params: true})
			if err != nil {
				benchFatal(b, err)
				return
			}
			qual.Analyze(cres.Infer, cres.Solution, qual.ModePlain)
		} else {
			res := infer.Run(mod.TInfo, mod.Diags, infer.Options{})
			sol := solve.Solve(res.Sys)
			qual.Analyze(res, sol, qual.ModePlain)
		}
	}
}

// benchErr records the underlying failure of the most recent bench
// body. b.Fatal aborts the benchmark goroutine without surfacing its
// message through testing.Benchmark (the result only shows N == 0),
// so bodies report the cause here before aborting.
var benchErr error

// benchFatal records err as the benchmark's underlying failure and
// aborts the run.
func benchFatal(b *testing.B, err error) {
	benchErr = err
	b.Fatal(err)
}

// BenchMeasurement is one benchmark's measurement in -bench-json
// output.
type BenchMeasurement struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

// namedBench is one benchmark body a JSON runner measures.
type namedBench struct {
	name string
	fn   func(*testing.B)
}

// runBenchJSON runs each benchmark via testing.Benchmark and returns
// the measurements as indented JSON. scope qualifies the zero-iteration
// error (for example " over the 589-module corpus"; empty for none).
func runBenchJSON(benches []namedBench, scope string) ([]byte, error) {
	var out []BenchMeasurement
	for _, bench := range benches {
		benchErr = nil
		r := testing.Benchmark(bench.fn)
		if r.N == 0 {
			underlying := benchErr
			if underlying == nil {
				underlying = fmt.Errorf("benchmark body aborted without reporting a cause")
			}
			return nil, fmt.Errorf("benchmark %s failed after zero iterations%s: %w", bench.name, scope, underlying)
		}
		out = append(out, BenchMeasurement{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// RunBenchJSON runs the solver benchmarks via testing.Benchmark and
// returns the measurements as indented JSON (the same shape the
// committed BENCH_solver.json uses for its before/after snapshots).
func RunBenchJSON() ([]byte, error) {
	return runBenchJSON([]namedBench{
		{"BenchmarkSolverPropagation", BenchSolverPropagation},
		{"BenchmarkCorpusSummary", BenchCorpusSummary},
		{"BenchmarkConfineOverhead/without-confine", func(b *testing.B) { BenchConfineOverhead(b, false) }},
		{"BenchmarkConfineOverhead/with-confine", func(b *testing.B) { BenchConfineOverhead(b, true) }},
	}, fmt.Sprintf(" over the %d-module corpus", drivergen.NumModules))
}

// RunObsBenchJSON runs the observability-overhead benchmarks — each
// workload with instrumentation disabled (metrics only; tracing off,
// the default) and enabled (per-request span traces) — and returns
// the measurements as indented JSON. BENCH_obs.json at the repo root
// records these next to the pre-instrumentation baseline.
func RunObsBenchJSON() ([]byte, error) {
	return runBenchJSON([]namedBench{
		{"BenchmarkSolverPropagation/disabled", BenchSolverPropagation},
		{"BenchmarkSolverPropagation/traced", BenchSolverPropagationTraced},
		{"BenchmarkCorpusSummary/disabled", BenchCorpusSummary},
		{"BenchmarkCorpusSummary/traced", BenchCorpusSummaryTraced},
	}, "")
}

// corpusRequests renders the 589-module corpus as analyze requests
// (default mode: the full three-mode qual experiment, like the
// experiment driver submits). The gateway and trace generators replay
// prefixes of it.
func corpusRequests() []service.AnalyzeRequest {
	specs := drivergen.Corpus()
	reqs := make([]service.AnalyzeRequest, len(specs))
	for i, s := range specs {
		reqs[i] = service.AnalyzeRequest{Module: s.Name + ".mc", Source: s.Source()}
	}
	return reqs
}
