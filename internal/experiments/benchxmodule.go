package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"localalias/internal/drivergen"
	"localalias/internal/modgraph"
)

// This file measures the summary cache's incremental replay over the
// multi-module driver stacks (internal/modgraph). Both sides of every
// pair run in one binary, interleaved (before, after, before, after,
// ...), the same methodology BENCH_parallel.json and
// BENCH_gateway.json use; the entries reuse the ParallelBenchEntry
// shape.

// xmoduleBenchLeaves sizes the benchmark stack: larger than the
// experiment/table stack, so a from-scratch pass costs well above
// timer noise.
const xmoduleBenchLeaves = 24

// xmoduleBenchRounds is how many interleaved before/after pairs each
// entry records.
const xmoduleBenchRounds = 3

func xmoduleBenchSources() []modgraph.Source {
	mods := drivergen.XStack(xmoduleBenchLeaves)
	srcs := make([]modgraph.Source, 0, len(mods))
	for _, m := range mods {
		srcs = append(srcs, modgraph.Source{Name: m.Name, Text: m.Source})
	}
	return srcs
}

// checkXmoduleRun verifies a benchmark iteration actually did the
// work: every module analyzed, and the aggregate summary triple
// matches the generator's calibrated expectation. A benchmark that
// silently analyzed a failed stack would time error paths instead.
func checkXmoduleRun(b *testing.B, res *modgraph.Result, mods []drivergen.XModule) bool {
	if f := res.Failures(); len(f) != 0 {
		benchFatal(b, fmt.Errorf("%d modules failed: %v", len(f), f))
		return false
	}
	_, want := drivergen.XStackExpected(mods)
	got := drivergen.Triple{NoConfine: res.Errors(0), Confine: res.Errors(1), AllStrong: res.Errors(2)}
	if got != want {
		benchFatal(b, fmt.Errorf("aggregate summary triple %+v, want %+v", got, want))
		return false
	}
	return true
}

// BenchXmoduleCacheReplay times the incremental path: one leaf edited
// (a comment appended, so results are unchanged), everything else a
// fingerprint hit. Each iteration's edit is unique, so the warm side
// pays exactly one leaf re-analysis plus N-1 cache hits per
// iteration; warm=false clears the cache every iteration instead —
// the from-scratch cost the cache exists to avoid. No module imports
// a leaf, so nothing is downstream of the edit.
func BenchXmoduleCacheReplay(b *testing.B, warm bool) {
	mods := drivergen.XStack(xmoduleBenchLeaves)
	srcs := xmoduleBenchSources()
	opts := modgraph.Options{Cache: modgraph.NewSummaryCache()}
	// Populate the cache with the unedited stack outside the timer.
	res := modgraph.Analyze(srcs, opts)
	if !checkXmoduleRun(b, res, mods) {
		return
	}
	edited := append([]modgraph.Source(nil), srcs...)
	leaf := len(edited) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		edited[leaf].Text = srcs[leaf].Text + fmt.Sprintf("// bench edit %d\n", i)
		if !warm {
			opts.Cache = modgraph.NewSummaryCache()
		}
		b.StartTimer()
		res := modgraph.Analyze(edited, opts)
		if !checkXmoduleRun(b, res, mods) {
			return
		}
	}
}

// XmoduleBenchReport is the top-level shape of BENCH_xmodule.json.
type XmoduleBenchReport struct {
	Description string `json:"description"`
	Platform    string `json:"platform"`
	// Modules is the stack size every entry analyzes.
	Modules int `json:"modules"`
	// NumCPU is the host's hardware parallelism at measurement time.
	NumCPU     int                   `json:"num_cpu"`
	Benchmarks []*ParallelBenchEntry `json:"benchmarks"`
}

// xmoduleBenchEntry names the report's one before/after pair.
const xmoduleBenchEntry = "BenchmarkXmoduleCache/one-leaf-edit"

// RunXmoduleBenchJSON runs the cross-module benchmark — cold vs warm
// summary-cache replay of a one-leaf edit — and renders
// BENCH_xmodule.json. progress (when non-nil) receives one line per
// interleaved pair.
func RunXmoduleBenchJSON(progress io.Writer) ([]byte, error) {
	rep := &XmoduleBenchReport{
		Description: "Before/after comparison for the cross-module whole-program pass: a " +
			fmt.Sprintf("%d-module import DAG (lock header, two mid-layer libraries, %d leaf drivers) ",
				xmoduleBenchLeaves+3, xmoduleBenchLeaves) +
			"analyzed bottom-up, sequentially, with package summaries. The entry compares a " +
			"from-scratch re-analysis against the fingerprint-cached replay of a one-leaf edit. " +
			"Both sides run in one binary, interleaved (before, after, before, after, ...), so " +
			"shared-VM load drift hits both equally; compare pairwise ratios, not absolute " +
			"numbers. Regenerate with: " +
			"go run ./cmd/experiments -bench-xmodule-json BENCH_xmodule.json",
		Platform: fmt.Sprintf("%s/%s, shared VM (expect run-to-run noise; compare interleaved pairs)",
			runtime.GOOS, runtime.GOARCH),
		Modules: xmoduleBenchLeaves + 3,
		NumCPU:  runtime.NumCPU(),
	}
	e, err := runPair(xmoduleBenchEntry,
		"cold cache: every module re-analyzed after the edit",
		"warm cache: fingerprint hits for all but the edited leaf",
		xmoduleBenchRounds,
		func(b *testing.B) { BenchXmoduleCacheReplay(b, false) },
		func(b *testing.B) { BenchXmoduleCacheReplay(b, true) },
		progress)
	if err != nil {
		return nil, err
	}
	rep.Benchmarks = append(rep.Benchmarks, e)
	return json.MarshalIndent(rep, "", "  ")
}
