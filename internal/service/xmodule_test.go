package service

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"localalias/internal/drivergen"
	"localalias/internal/obs"
)

func xstackRequest(mode string) *AnalyzeRequest {
	mods := drivergen.XStack(2)
	leaf := mods[len(mods)-1]
	var libs []LibrarySource
	for _, m := range mods[:len(mods)-1] {
		libs = append(libs, LibrarySource{Name: m.Name, Source: m.Source})
	}
	// The remaining leaves are independent of each other, so shipping
	// the others as libraries is harmless; use the first leaf's stack.
	return &AnalyzeRequest{
		Module: leaf.Name,
		Source: leaf.Source,
		Options: AnalyzeOptions{
			Mode:        mode,
			MultiModule: true,
			Libraries:   libs,
		},
	}
}

// TestMultiModuleRequest runs a whole-program qual request through
// the engine and checks the summary pass shows in the report: the
// leaf's expected summary triple, not the havoc one.
func TestMultiModuleRequest(t *testing.T) {
	mods := drivergen.XStack(2)
	leaf := mods[len(mods)-1]
	resp := Analyze(context.Background(), xstackRequest(ModeQual))
	if resp.Failure != nil {
		t.Fatalf("failure: %+v", resp.Failure)
	}
	if resp.Locking == nil {
		t.Fatal("no locking report")
	}
	got := drivergen.Triple{
		NoConfine: resp.Locking.NoConfine.NumErrors,
		Confine:   resp.Locking.WithConfine.NumErrors,
		AllStrong: resp.Locking.AllStrong.NumErrors,
	}
	if got != leaf.ExpSummary {
		t.Errorf("triple = %+v, want summary %+v", got, leaf.ExpSummary)
	}
	if !strings.HasPrefix(resp.Xmodule, "modules=5;analyzed=5;failed=0") {
		t.Errorf("Xmodule = %q", resp.Xmodule)
	}
}

// TestMultiModuleDeadline checks that a multi_module request stays
// inside its deadline: the pass checks the request's context between
// modules and bounds every solve with it, so the analysis goroutine
// itself reports the timeout, in a named pipeline phase, before the
// guard's grace period runs out and it would be abandoned. The
// request is a 48-leaf stack, every other leaf shipped as a library
// (about 10 ms of analysis on one CPU), either already past its
// deadline or given 2 ms.
func TestMultiModuleDeadline(t *testing.T) {
	mods := drivergen.XStack(48)
	leaf := mods[len(mods)-1]
	var libs []LibrarySource
	for _, m := range mods[:len(mods)-1] {
		libs = append(libs, LibrarySource{Name: m.Name, Source: m.Source})
	}
	req := &AnalyzeRequest{
		Module: leaf.Name, Source: leaf.Source,
		Options: AnalyzeOptions{Mode: ModeQual, MultiModule: true, Libraries: libs},
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		timeout time.Duration
	}{
		{"expired", expired, 0},
		{"mid-analysis", context.Background(), 2 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := AnalyzeBounded(tc.ctx, req, tc.timeout).Failure
			if f == nil || f.Kind != obs.KindTimeout {
				t.Fatalf("failure = %+v, want a timeout", f)
			}
			if !slices.Contains(obs.Phases(), f.Phase) {
				t.Errorf("timeout in phase %q, want a pipeline phase", f.Phase)
			}
			if strings.Contains(f.Message, "abandoned") {
				t.Errorf("the analysis goroutine was abandoned: %s", f.Message)
			}
		})
	}
}

// TestMultiModuleLibraryFailure checks a broken library surfaces as
// positioned diagnostics on the response, in the library's own file.
func TestMultiModuleLibraryFailure(t *testing.T) {
	resp := Analyze(context.Background(), &AnalyzeRequest{
		Module: "app",
		Source: "import \"libx\";\nfun f(): int { return libx.val(); }\n",
		Options: AnalyzeOptions{
			Mode:        ModeQual,
			MultiModule: true,
			Libraries: []LibrarySource{
				{Name: "libx", Source: "fun val(): int { return }\n"}, // syntax error
			},
		},
	})
	if resp.Failure != nil {
		t.Fatalf("want findings, got failure: %+v", resp.Failure)
	}
	if resp.OK {
		t.Fatal("want findings")
	}
	found := false
	for _, d := range resp.Diagnostics.Diags {
		if strings.HasPrefix(d.Pos, "libx:") && d.Severity == "error" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no diagnostic positioned in libx: %+v", resp.Diagnostics.Diags)
	}
	if !strings.Contains(resp.Xmodule, "failed=1") {
		t.Errorf("Xmodule = %q", resp.Xmodule)
	}
}

// TestMultiModuleMissingImport checks the module's own missing-import
// diagnostic comes back positioned (findings, not a degraded run).
func TestMultiModuleMissingImport(t *testing.T) {
	resp := Analyze(context.Background(), &AnalyzeRequest{
		Module:  "app",
		Source:  "import \"ghost\";\nfun f() { work(); }\n",
		Options: AnalyzeOptions{Mode: ModeQual, MultiModule: true},
	})
	if resp.Failure != nil {
		t.Fatalf("want findings, got failure: %+v", resp.Failure)
	}
	if resp.OK || resp.Findings == 0 {
		t.Fatal("want findings for missing import")
	}
	found := false
	for _, d := range resp.Diagnostics.Diags {
		if strings.HasPrefix(d.Pos, "app:1:") && strings.Contains(d.Message, "cannot resolve import \"ghost\"") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing positioned import diagnostic: %+v", resp.Diagnostics.Diags)
	}
}

// TestMultiModuleWrongMode checks multi_module is rejected outside
// confine/qual with a structured failure.
func TestMultiModuleWrongMode(t *testing.T) {
	resp := Analyze(context.Background(), &AnalyzeRequest{
		Module:  "m",
		Source:  "fun f() { work(); }\n",
		Options: AnalyzeOptions{Mode: ModeCheck, MultiModule: true},
	})
	if resp.Failure == nil || !strings.Contains(resp.Failure.Message, "multi_module") {
		t.Fatalf("want multi_module mode failure, got %+v", resp.Failure)
	}
}

// TestMultiModuleCacheKeyDistinct checks the new option fields
// perturb the cache key: toggling multi_module, renaming a library,
// and editing library source must all produce distinct keys.
func TestMultiModuleCacheKeyDistinct(t *testing.T) {
	base := xstackRequest(ModeQual)
	keys := map[string]string{"base": CacheKey(base)}

	single := *base
	single.Options.MultiModule = false
	keys["no-multi"] = CacheKey(&single)

	renamed := *base
	renamed.Options.Libraries = append([]LibrarySource{}, base.Options.Libraries...)
	renamed.Options.Libraries[0].Name += "2"
	keys["renamed"] = CacheKey(&renamed)

	edited := *base
	edited.Options.Libraries = append([]LibrarySource{}, base.Options.Libraries...)
	edited.Options.Libraries[0].Source += "// rev\n"
	keys["edited"] = CacheKey(&edited)

	seen := map[string]string{}
	for label, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("cache key collision between %s and %s", prev, label)
		}
		seen[k] = label
	}
}
