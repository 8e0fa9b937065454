package service

import (
	"context"
	"strings"
	"testing"
	"time"

	"localalias/internal/drivergen"
	"localalias/internal/faults"
	"localalias/internal/obs"
)

const violationSrc = `fun f(x: ref int): int {
    restrict y = x {
        restrict z = x {
            return *y + *z;
        }
        return 0;
    }
    return 0;
}
`

const inferSrc = `global sink: ref int;

fun f(q: ref int, w: ref int, leaky: ref int): int {
    let p = q;
    let b = w;
    let e = leaky;
    sink = e;
    return *p + *b + *w;
}
`

// TestAnalyzeCheckClean: valid annotations verify with no findings and
// the clean exit code.
func TestAnalyzeCheckClean(t *testing.T) {
	resp := Analyze(context.Background(), &AnalyzeRequest{
		Module: "clean.mc", Source: cleanCheckSrc,
		Options: AnalyzeOptions{Mode: ModeCheck},
	})
	if !resp.OK || resp.Findings != 0 || resp.Failure != nil {
		t.Fatalf("clean check: OK=%v Findings=%d Failure=%v", resp.OK, resp.Findings, resp.Failure)
	}
	if resp.Check == nil || !resp.Check.OK {
		t.Errorf("Check report = %+v; want OK", resp.Check)
	}
	if got := resp.ExitCode(); got != ExitClean {
		t.Errorf("ExitCode() = %d, want %d", got, ExitClean)
	}
	if resp.APIVersion != APIVersion || resp.Mode != ModeCheck || resp.Module != "clean.mc" {
		t.Errorf("response header = %s/%s/%s", resp.APIVersion, resp.Module, resp.Mode)
	}
}

// TestAnalyzeCheckViolation: a restrict violation is a finding
// (positioned error diagnostic, findings exit code), not a failure.
func TestAnalyzeCheckViolation(t *testing.T) {
	resp := Analyze(context.Background(), &AnalyzeRequest{
		Module: "viol.mc", Source: violationSrc,
		Options: AnalyzeOptions{Mode: ModeCheck},
	})
	if resp.Failure != nil {
		t.Fatalf("violation reported as failure: %v", resp.Failure)
	}
	if resp.OK || resp.Findings == 0 {
		t.Fatalf("violation not flagged: OK=%v Findings=%d", resp.OK, resp.Findings)
	}
	if resp.Check == nil || resp.Check.OK {
		t.Errorf("Check report = %+v; want not OK", resp.Check)
	}
	if got := resp.ExitCode(); got != ExitFindings {
		t.Errorf("ExitCode() = %d, want %d", got, ExitFindings)
	}
	var positioned bool
	for _, d := range resp.Diagnostics.Diags {
		if d.Severity == "error" && strings.Contains(d.Pos, "viol.mc:") {
			positioned = true
		}
	}
	if !positioned {
		t.Errorf("no positioned error diagnostic in %+v", resp.Diagnostics.Diags)
	}
}

// TestAnalyzeParseError: source that does not parse yields findings
// (the diagnostics ARE the result), never a degraded response.
func TestAnalyzeParseError(t *testing.T) {
	resp := Analyze(context.Background(), &AnalyzeRequest{
		Module: "broken.mc", Source: "fun ) nope {{{",
		Options: AnalyzeOptions{Mode: ModeQual},
	})
	if resp.Failure != nil {
		t.Fatalf("parse error reported as failure: %v", resp.Failure)
	}
	if resp.Findings == 0 || resp.ExitCode() != ExitFindings {
		t.Fatalf("parse error: Findings=%d ExitCode=%d; want findings and exit %d",
			resp.Findings, resp.ExitCode(), ExitFindings)
	}
}

// TestAnalyzeInfer: restrict inference promotes the safe candidate,
// reports the rejected ones, and returns the annotated program.
func TestAnalyzeInfer(t *testing.T) {
	resp := Analyze(context.Background(), &AnalyzeRequest{
		Module: "inf.mc", Source: inferSrc,
		Options: AnalyzeOptions{Mode: ModeInfer},
	})
	if resp.Failure != nil || resp.Infer == nil {
		t.Fatalf("infer: Failure=%v Infer=%v", resp.Failure, resp.Infer)
	}
	r := resp.Infer
	if r.Candidates != 3 || r.Restricted != 1 {
		t.Errorf("Candidates=%d Restricted=%d; want 3 and 1", r.Candidates, r.Restricted)
	}
	if len(r.Marked) != r.Restricted {
		t.Errorf("Marked %v does not match Restricted=%d", r.Marked, r.Restricted)
	}
	if len(r.Marked) > 0 && !strings.Contains(r.Marked[0], `"p"`) {
		t.Errorf("Marked[0] = %q, want the candidate p", r.Marked[0])
	}
	if !strings.Contains(resp.Program, "restrict") {
		t.Errorf("annotated program lacks the inferred restrict:\n%s", resp.Program)
	}
}

// TestAnalyzeQualAgainstGenerator: the qual mode must measure exactly
// the triple the corpus generator predicts — the same agreement the
// experiment driver asserts over all 589 modules.
func TestAnalyzeQualAgainstGenerator(t *testing.T) {
	var spec *drivergen.ModuleSpec
	for _, s := range drivergen.Corpus() {
		if s.Category == drivergen.FullRecovery {
			spec = s
			break
		}
	}
	if spec == nil {
		t.Fatal("corpus has no full-recovery module")
	}
	resp := Analyze(context.Background(), &AnalyzeRequest{
		Module: spec.Name + ".mc", Source: spec.Source(),
		Options: AnalyzeOptions{Mode: ModeQual},
	})
	if resp.Failure != nil || resp.Locking == nil {
		t.Fatalf("%s: Failure=%v Locking=%v", spec.Name, resp.Failure, resp.Locking)
	}
	got := drivergen.Triple{
		NoConfine: resp.Locking.NoConfine.NumErrors,
		Confine:   resp.Locking.WithConfine.NumErrors,
		AllStrong: resp.Locking.AllStrong.NumErrors,
	}
	if got != spec.Expected {
		t.Errorf("%s: measured %+v, generator expects %+v", spec.Name, got, spec.Expected)
	}
	if resp.Locking.Potential != got.NoConfine-got.AllStrong ||
		resp.Locking.Eliminated != got.NoConfine-got.Confine {
		t.Errorf("derived counts wrong: %+v", resp.Locking)
	}
	// Findings in qual mode are the confine-inference residual errors.
	if resp.Findings != got.Confine {
		t.Errorf("Findings = %d, want the with-confine error count %d", resp.Findings, got.Confine)
	}
}

// TestAnalyzePanicContained: a panic inside the pipeline degrades the
// response (structured failure, degraded exit code) instead of
// crashing the caller.
func TestAnalyzePanicContained(t *testing.T) {
	testAnalyzeHook = func(ctx context.Context, module string) {
		panic("injected service fault")
	}
	defer func() { testAnalyzeHook = nil }()
	resp := Analyze(context.Background(), &AnalyzeRequest{
		Module: "boom.mc", Source: cleanCheckSrc,
		Options: AnalyzeOptions{Mode: ModeCheck},
	})
	if resp.Failure == nil {
		t.Fatal("panic was not contained into a Failure record")
	}
	if resp.Failure.Kind != obs.KindPanic {
		t.Errorf("Failure.Kind = %q, want panic", resp.Failure.Kind)
	}
	if !strings.Contains(resp.Failure.Message, "injected service fault") {
		t.Errorf("Failure.Message = %q lacks the panic value", resp.Failure.Message)
	}
	if got := resp.ExitCode(); got != ExitDegraded {
		t.Errorf("ExitCode() = %d, want %d", got, ExitDegraded)
	}
}

// TestAnalyzeTimeout: a stalled analysis is cut off at the deadline
// with a timeout failure and no diagnostics from the abandoned run.
func TestAnalyzeTimeout(t *testing.T) {
	testAnalyzeHook = func(ctx context.Context, module string) {
		<-ctx.Done()
		faults.CheckDeadline(ctx)
	}
	defer func() { testAnalyzeHook = nil }()
	resp := AnalyzeBounded(context.Background(), &AnalyzeRequest{
		Module: "stall.mc", Source: cleanCheckSrc,
		Options: AnalyzeOptions{Mode: ModeCheck},
	}, 50*time.Millisecond)
	if resp.Failure == nil || resp.Failure.Kind != obs.KindTimeout {
		t.Fatalf("Failure = %+v, want a timeout record", resp.Failure)
	}
	if resp.Raw != nil {
		t.Error("Raw diagnostics leaked from a timed-out analysis")
	}
	if got := resp.ExitCode(); got != ExitDegraded {
		t.Errorf("ExitCode() = %d, want %d", got, ExitDegraded)
	}
}

// TestAnalyzeUnknownMode: an invalid mode degrades the response.
func TestAnalyzeUnknownMode(t *testing.T) {
	resp := Analyze(context.Background(), &AnalyzeRequest{
		Module: "m.mc", Source: cleanCheckSrc,
		Options: AnalyzeOptions{Mode: "optimize"},
	})
	if resp.Failure == nil || !strings.Contains(resp.Failure.Message, "optimize") {
		t.Fatalf("Failure = %+v, want an unknown-mode record", resp.Failure)
	}
	if resp.ExitCode() != ExitDegraded {
		t.Errorf("ExitCode() = %d, want %d", resp.ExitCode(), ExitDegraded)
	}
}
