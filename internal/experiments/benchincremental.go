package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"localalias/internal/drivergen"
	"localalias/internal/service"
	"localalias/internal/solve"
)

// This file measures incremental summary-based re-analysis (PR 7)
// against from-scratch re-analysis: the daemon flow where a corpus is
// resident (byte cache + solve memo) and one module receives a
// one-function edit. The "before" side re-analyzes every module from
// scratch — the cost a cacheless client pays per revision; the "after"
// side serves unchanged modules from the byte cache and re-solves only
// what the edit invalidated, replaying the rest from component
// summaries. Both sides run interleaved in one binary, the same
// methodology as BENCH_parallel.json.

// incrementalMemoEntries sizes the benchmark's solve memo to hold the
// whole corpus's components without eviction churn (≈20 components per
// module × 589 modules).
const incrementalMemoEntries = 1 << 15

// corpusRequests renders the 589-module corpus as analyze requests
// (default mode: the full three-mode qual experiment, like the
// experiment driver submits).
func corpusRequests() []service.AnalyzeRequest {
	specs := drivergen.Corpus()
	reqs := make([]service.AnalyzeRequest, len(specs))
	for i, s := range specs {
		reqs[i] = service.AnalyzeRequest{Module: s.Name + ".mc", Source: s.Source()}
	}
	return reqs
}

// editFunction applies the n-th revision of a one-function edit:
// a fresh let binding inserted at the top of the module's first
// function body. Each n yields distinct source bytes (so the byte
// cache misses, like a real edit) and a changed constraint component
// for that function (so the solver has genuine work to redo).
func editFunction(src string, n int) string {
	at := strings.Index(src, "fun ")
	if at < 0 {
		return src
	}
	brace := strings.IndexByte(src[at:], '{')
	if brace < 0 {
		return src
	}
	pos := at + brace + 1
	return src[:pos] + fmt.Sprintf("\n    let __e%d = new %d;\n    *__e%d = %d;", n, n, n, n+1) + src[pos:]
}

// editComment applies the n-th comment-only revision: new source
// bytes (the byte cache misses, every span shifts) but an unchanged
// constraint system, so the memo replays every component. This is the
// save-without-a-semantic-change flow an editor produces constantly.
func editComment(src string, n int) string {
	return fmt.Sprintf("// revision %d\n", n) + src
}

// BenchIncrementalCold re-analyzes the whole corpus from scratch each
// iteration, with the edited module at its i-th revision — the before
// side: no byte cache, no memo.
func BenchIncrementalCold(b *testing.B, reqs []service.AnalyzeRequest, editIdx int) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		for j := range reqs {
			r := reqs[j]
			if j == editIdx {
				r.Source = editFunction(r.Source, i)
			}
			resp := service.Analyze(ctx, &r)
			if resp.Failure != nil {
				benchFatal(b, fmt.Errorf("%s: %s", r.Module, resp.Failure.Message))
				return
			}
			if _, err := resp.MarshalCanonical(); err != nil {
				benchFatal(b, err)
				return
			}
		}
	}
}

// BenchIncrementalWarm is the after side: a resident byte cache plus
// the incremental engine, warmed on the pristine corpus outside the
// timer. Each iteration edits one function of one module and
// re-analyzes the corpus the way the daemon would — unchanged modules
// replay their cached bytes; the edited module re-solves only the
// components its edit changed. The returned engine exposes the memo
// stats the report records.
func BenchIncrementalWarm(b *testing.B, reqs []service.AnalyzeRequest, editIdx int, inc *service.Incremental) {
	ctx := context.Background()
	cache := service.NewCache(2 * len(reqs))
	pass := func(revision int) error {
		for j := range reqs {
			r := reqs[j]
			if j == editIdx && revision >= 0 {
				r.Source = editFunction(r.Source, revision)
			}
			_, claim, err := cache.Lookup(ctx, service.CacheKey(&r), "")
			if err != nil {
				return err
			}
			if claim == nil {
				continue
			}
			resp, _ := inc.Analyze(ctx, &r, 0)
			if resp.Failure != nil {
				claim.Abandon()
				return fmt.Errorf("%s: %s", r.Module, resp.Failure.Message)
			}
			data, err := resp.MarshalCanonical()
			if err != nil {
				claim.Abandon()
				return err
			}
			claim.Finish(data, false)
		}
		return nil
	}
	b.StopTimer()
	if err := pass(-1); err != nil { // warm the resident state
		benchFatal(b, err)
		return
	}
	b.StartTimer()
	for i := 0; i < b.N; i++ {
		if err := pass(i); err != nil {
			benchFatal(b, err)
			return
		}
	}
}

// BenchEditedModuleCold / BenchEditedModuleIncremental isolate the
// edited module itself across comment-only revisions: from-scratch
// analysis vs the incremental engine replaying every component from
// summaries (corpus driver modules collapse to one solve component, so
// a comment revision is the case where the memo's within-module replay
// fully applies; a body edit re-solves the component on both sides).
func BenchEditedModuleCold(b *testing.B, req service.AnalyzeRequest) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		r := req
		r.Source = editComment(r.Source, i)
		resp := service.Analyze(ctx, &r)
		if resp.Failure != nil {
			benchFatal(b, fmt.Errorf("%s: %s", r.Module, resp.Failure.Message))
			return
		}
	}
}

func BenchEditedModuleIncremental(b *testing.B, req service.AnalyzeRequest, inc *service.Incremental) {
	ctx := context.Background()
	b.StopTimer()
	if resp, _ := inc.Analyze(ctx, &req, 0); resp.Failure != nil {
		benchFatal(b, fmt.Errorf("%s: %s", req.Module, resp.Failure.Message))
		return
	}
	b.StartTimer()
	for i := 0; i < b.N; i++ {
		r := req
		r.Source = editComment(r.Source, i)
		resp, _ := inc.Analyze(ctx, &r, 0)
		if resp.Failure != nil {
			benchFatal(b, fmt.Errorf("%s: %s", r.Module, resp.Failure.Message))
			return
		}
	}
}

// IncrementalBenchReport is the top-level shape of
// BENCH_incremental.json.
type IncrementalBenchReport struct {
	Description string `json:"description"`
	Platform    string `json:"platform"`
	NumCPU      int    `json:"num_cpu"`
	// Modules is the corpus size; EditedModule names the module that
	// receives the one-function edit each iteration.
	Modules      int    `json:"modules"`
	EditedModule string `json:"edited_module"`

	Benchmarks []*ParallelBenchEntry `json:"benchmarks"`

	// MemoStats snapshots the corpus-scale engine's solve memo after
	// the run: hits are components replayed instead of re-solved.
	MemoStats solve.MemoStats `json:"memo_stats"`
}

// incrementalBenchRounds is how many interleaved cold/incremental
// pairs each entry records.
const incrementalBenchRounds = 3

// RunIncrementalBenchJSON runs the incremental re-analysis benchmark
// suite and renders BENCH_incremental.json. progress (when non-nil)
// receives one line per interleaved pair.
func RunIncrementalBenchJSON(progress io.Writer) ([]byte, error) {
	reqs := corpusRequests()
	// The corpus pair edits a median-size module (representative of an
	// arbitrary save); the within-module pair replays the corpus's
	// heaviest module, where solver work is the largest pipeline share
	// and component replay has the most to skip.
	editIdx := len(reqs) / 2
	heavyIdx := 0
	for i := range reqs {
		if len(reqs[i].Source) > len(reqs[heavyIdx].Source) {
			heavyIdx = i
		}
	}
	rep := &IncrementalBenchReport{
		Description: "Incremental summary-based re-analysis vs from-scratch re-analysis after a " +
			"one-function edit. 'before' re-analyzes all modules cold each revision; 'after' keeps " +
			"the daemon-resident state (canonical-bytes cache + content-addressed solve-component " +
			"memo) warm, so unchanged modules replay cached bytes and the edited module re-solves " +
			"only the components its edit changed. Results are byte-identical on both sides (pinned " +
			"by the incremental differential tests). Runs are interleaved (before, after, ...) so " +
			"shared-VM load drift hits both sides equally; compare pairwise ratios. The " +
			"edited-module-comment-revision pair isolates the within-module component-replay win " +
			"(a comment-only save: new bytes, unchanged constraints) from the byte-cache win. " +
			"Regenerate with: " +
			"go run ./cmd/experiments -bench-incremental-json BENCH_incremental.json",
		Platform: fmt.Sprintf("%s/%s, shared VM (expect run-to-run noise; compare interleaved pairs)",
			runtime.GOOS, runtime.GOARCH),
		NumCPU:       runtime.NumCPU(),
		Modules:      len(reqs),
		EditedModule: reqs[editIdx].Module,
	}

	// One resident engine for the corpus-scale pair (rebuilding it per
	// round would re-measure the warm-up the daemon pays once).
	corpusInc := service.NewIncremental(solve.NewMemo(incrementalMemoEntries), 2*len(reqs))
	moduleInc := service.NewIncremental(solve.NewMemo(solve.DefaultMemoEntries), 16)
	heavy := reqs[heavyIdx]

	type spec struct {
		name, before, after string
		fnBefore, fnAfter   func(*testing.B)
	}
	specs := []spec{
		{
			name:     "BenchmarkIncremental/corpus-reanalyze-after-one-edit",
			before:   "re-analyze all modules from scratch (no cache, no memo)",
			after:    "resident byte cache + solve memo: 1 edited module re-analyzed incrementally, rest replayed",
			fnBefore: func(b *testing.B) { BenchIncrementalCold(b, reqs, editIdx) },
			fnAfter:  func(b *testing.B) { BenchIncrementalWarm(b, reqs, editIdx, corpusInc) },
		},
		{
			name:   "BenchmarkIncremental/edited-module-comment-revision",
			before: heavy.Module + " (heaviest module) analyzed from scratch each comment-only revision",
			after: heavy.Module + " re-analyzed with all components replayed from summaries " +
				"(parse/typecheck/infer still run; only the solve is skipped)",
			fnBefore: func(b *testing.B) { BenchEditedModuleCold(b, heavy) },
			fnAfter:  func(b *testing.B) { BenchEditedModuleIncremental(b, heavy, moduleInc) },
		},
	}
	for _, s := range specs {
		e, err := runPair(s.name, s.before, s.after, incrementalBenchRounds, s.fnBefore, s.fnAfter, progress)
		if err != nil {
			return nil, err
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
	}
	rep.MemoStats = corpusInc.Memo().Stats()
	return json.MarshalIndent(rep, "", "  ")
}
