package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"

	"localalias/internal/core"
	"localalias/internal/drivergen"
	"localalias/internal/infer"
	"localalias/internal/solve"
)

// This file measures the solver's pooled scratch/retained arenas
// (docs/ALGORITHMS.md "Pooled solver storage") against the
// allocate-per-solve profile. The "before" side of every pair runs the
// solver with pooling disabled (solve.SetPooling(false)) — the
// organic-allocation behavior the solver had before the pools existed
// — so one binary measures both sides interleaved, the same
// methodology BENCH_solver.json and BENCH_obs.json use.

// BenchSolverSolveOnly measures the steady-state constraint solve in
// isolation: every iteration rebuilds the constraint system with the
// timer (and allocation accounting) stopped, then times exactly
// solve+Release. This is the number the pools exist to improve — in a
// resident daemon the per-request cost is the solve, not the one-time
// module load — and the allocs/op it reports is the solver's own,
// not inference's. pooled toggles the scratch/retained pools.
func BenchSolverSolveOnly(b *testing.B, pooled bool) {
	src := ScalingProgram(200, 0)
	mod, err := core.LoadModule("scale.mc", src)
	if err != nil {
		benchFatal(b, err)
		return
	}
	prev := solve.SetPooling(pooled)
	defer solve.SetPooling(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		res := infer.Run(mod.TInfo, mod.Diags, infer.Options{InferRestrictLets: true})
		b.StartTimer()
		sol := solve.Solve(res.Sys)
		if sol.Stats.AtomsPropagated == 0 {
			benchFatal(b, fmt.Errorf("solver propagated no atoms on the scaling program"))
			return
		}
		sol.Release()
	}
}

// BenchCorpusParallel runs the full 589-module corpus (one worker per
// CPU, across modules) with GOMAXPROCS pinned to procs. pooled selects
// the scratch/retained pools.
func BenchCorpusParallel(b *testing.B, procs int, pooled bool) {
	prevProcs := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prevProcs)
	prevPool := solve.SetPooling(pooled)
	defer solve.SetPooling(prevPool)
	specs := drivergen.Corpus()
	var res *CorpusResult
	for i := 0; i < b.N; i++ {
		res = RunCorpus(context.Background(), CorpusOptions{Specs: specs})
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
}

// ParallelBenchEntry is one before/after pair in BENCH_parallel.json.
// The runs alternate (before, after, before, after, ...) so shared-VM
// load drift hits both sides equally; index i of the before and after
// arrays is one interleaved pair.
type ParallelBenchEntry struct {
	Name string `json:"name"`
	// Before/After describe the two configurations in words.
	Before string `json:"before"`
	After  string `json:"after"`

	BeforeNsPerOp []int64 `json:"before_ns_per_op"`
	AfterNsPerOp  []int64 `json:"after_ns_per_op"`

	BeforeAllocsPerOp []int64 `json:"before_allocs_per_op"`
	AfterAllocsPerOp  []int64 `json:"after_allocs_per_op"`

	// PairwiseSpeedups is before/after ns per op, per interleaved pair.
	PairwiseSpeedups []float64 `json:"pairwise_speedups"`
	MedianSpeedup    float64   `json:"median_speedup"`
	// AllocsReduction is median(before allocs) / median(after allocs);
	// 0 when the after side allocates nothing.
	AllocsReduction float64 `json:"allocs_reduction,omitempty"`
}

// ParallelBenchReport is the top-level shape of BENCH_parallel.json.
type ParallelBenchReport struct {
	Description string `json:"description"`
	Platform    string `json:"platform"`
	// NumCPU is the host's hardware parallelism at measurement time.
	NumCPU     int                   `json:"num_cpu"`
	Benchmarks []*ParallelBenchEntry `json:"benchmarks"`
}

// corpusGomaxprocs are the scheduler parallelism levels the corpus
// pairs sweep.
var corpusGomaxprocs = []int{1, 2, 4}

// parallelBenchRounds is how many interleaved before/after pairs each
// entry records.
const parallelBenchRounds = 3

// runPair runs one interleaved before/after pair sequence and fills in
// the entry's measurements and derived ratios.
func runPair(name, beforeDesc, afterDesc string, rounds int, before, after func(*testing.B), progress io.Writer) (*ParallelBenchEntry, error) {
	e := &ParallelBenchEntry{Name: name, Before: beforeDesc, After: afterDesc}
	run := func(fn func(*testing.B)) (testing.BenchmarkResult, error) {
		benchErr = nil
		r := testing.Benchmark(fn)
		if r.N == 0 {
			underlying := benchErr
			if underlying == nil {
				underlying = fmt.Errorf("benchmark body aborted without reporting a cause")
			}
			return r, fmt.Errorf("benchmark %s failed after zero iterations: %w", name, underlying)
		}
		return r, nil
	}
	for i := 0; i < rounds; i++ {
		rb, err := run(before)
		if err != nil {
			return nil, err
		}
		ra, err := run(after)
		if err != nil {
			return nil, err
		}
		e.BeforeNsPerOp = append(e.BeforeNsPerOp, rb.NsPerOp())
		e.AfterNsPerOp = append(e.AfterNsPerOp, ra.NsPerOp())
		e.BeforeAllocsPerOp = append(e.BeforeAllocsPerOp, rb.AllocsPerOp())
		e.AfterAllocsPerOp = append(e.AfterAllocsPerOp, ra.AllocsPerOp())
		if ra.NsPerOp() > 0 {
			e.PairwiseSpeedups = append(e.PairwiseSpeedups,
				round2(float64(rb.NsPerOp())/float64(ra.NsPerOp())))
		}
		if progress != nil {
			fmt.Fprintf(progress, "  %s: pair %d/%d  before %d ns/op (%d allocs)  after %d ns/op (%d allocs)\n",
				name, i+1, rounds, rb.NsPerOp(), rb.AllocsPerOp(), ra.NsPerOp(), ra.AllocsPerOp())
		}
	}
	e.MedianSpeedup = round2(median(e.PairwiseSpeedups))
	if aa := median(e.AfterAllocsPerOp); aa > 0 {
		e.AllocsReduction = round2(median(e.BeforeAllocsPerOp) / aa)
	}
	return e, nil
}

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 when xs is empty.
func median[T int64 | float64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return float64(s[mid])
	}
	return (float64(s[mid-1]) + float64(s[mid])) / 2
}

func round2(x float64) float64 {
	return float64(int64(x*100+0.5)) / 100
}

// RunParallelBenchJSON runs the solver-pooling benchmark suite —
// steady-state solve allocs/op with pooling off vs on, and the full
// corpus with pooling off vs on at GOMAXPROCS 1/2/4 — and renders
// BENCH_parallel.json. progress (when non-nil) receives one line per
// interleaved pair.
func RunParallelBenchJSON(progress io.Writer) ([]byte, error) {
	rep := &ParallelBenchReport{
		Description: "Before/after comparison for the solver's pooled scratch/retained arenas. " +
			"'before' is the solver with pooling disabled (solve.SetPooling(false)) — the " +
			"organic-allocation profile it had before the pools existed; 'after' is the pooled " +
			"solver. The solver is sequential; the corpus rows run one module per CPU. Both " +
			"sides run in one binary, interleaved (before, after, before, after, ...), so " +
			"shared-VM load drift hits both equally; compare pairwise ratios, not absolute " +
			"numbers. The steady-state-solve entry times exactly solve+Release (the constraint " +
			"system is rebuilt with the timer and allocation accounting stopped), which is the " +
			"per-request cost a resident `lna serve` daemon pays. Regenerate with: " +
			"go run ./cmd/experiments -bench-parallel-json BENCH_parallel.json",
		Platform: fmt.Sprintf("%s/%s, shared VM (expect run-to-run noise; compare interleaved pairs)",
			runtime.GOOS, runtime.GOARCH),
		NumCPU: runtime.NumCPU(),
	}

	type spec struct {
		name, before, after string
		fnBefore, fnAfter   func(*testing.B)
	}
	specs := []spec{{
		name:     "BenchmarkSolverPropagation/steady-state-solve",
		before:   "solve, pooling disabled (allocate-per-solve profile)",
		after:    "solve, pooled scratch/retained arenas",
		fnBefore: func(b *testing.B) { BenchSolverSolveOnly(b, false) },
		fnAfter:  func(b *testing.B) { BenchSolverSolveOnly(b, true) },
	}}
	for _, procs := range corpusGomaxprocs {
		procs := procs
		specs = append(specs, spec{
			name:     fmt.Sprintf("BenchmarkCorpusSummary/gomaxprocs-%d", procs),
			before:   fmt.Sprintf("pooling disabled, GOMAXPROCS %d", procs),
			after:    fmt.Sprintf("pooled arenas, GOMAXPROCS %d", procs),
			fnBefore: func(b *testing.B) { BenchCorpusParallel(b, procs, false) },
			fnAfter:  func(b *testing.B) { BenchCorpusParallel(b, procs, true) },
		})
	}
	for _, s := range specs {
		e, err := runPair(s.name, s.before, s.after, parallelBenchRounds, s.fnBefore, s.fnAfter, progress)
		if err != nil {
			return nil, err
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
	}
	return json.MarshalIndent(rep, "", "  ")
}
