package experiments

// Corpus-level fault-injection test: one module panics, one stalls
// past the per-module deadline, and the run must still complete every
// other module with the same (deterministic) solver statistics it
// produces on a healthy run.

import (
	"context"
	"strings"
	"testing"
	"time"

	"localalias/internal/drivergen"
	"localalias/internal/faults"
	"localalias/internal/obs"
)

func TestCorpusFaultInjection(t *testing.T) {
	specs := drivergen.Corpus()[:12]
	panicMod := specs[3].Name
	stallMod := specs[7].Name

	// Healthy baseline over the same slice, for the survivors'
	// determinism check.
	baseline := RunCorpus(context.Background(), CorpusOptions{Specs: specs})
	if baseline.Degraded() {
		t.Fatalf("baseline run degraded: %d failed, %d timed out", baseline.Failed, baseline.TimedOut)
	}
	baseStats := make(map[string]string)
	for _, m := range baseline.Modules {
		baseStats[m.Spec.Name] = m.Response.Diagnostics.Stats.String()
	}

	testFaultHook = func(ctx context.Context, spec *drivergen.ModuleSpec) {
		switch spec.Name {
		case panicMod:
			panic("injected fault: exploding module")
		case stallMod:
			// Stall until the per-module deadline fires, then abort
			// cooperatively the way the solver's deadline checks do.
			<-ctx.Done()
			faults.CheckDeadline(ctx)
		}
	}
	defer func() { testFaultHook = nil }()

	res := RunCorpus(context.Background(), CorpusOptions{
		Specs:         specs,
		ModuleTimeout: 300 * time.Millisecond,
	})

	if len(res.Modules) != len(specs) {
		t.Fatalf("got %d module results, want %d", len(res.Modules), len(specs))
	}
	if res.Failed != 1 || res.TimedOut != 1 {
		t.Fatalf("Failed = %d, TimedOut = %d; want 1 and 1", res.Failed, res.TimedOut)
	}
	if got, want := res.Analyzed(), len(specs)-2; got != want {
		t.Errorf("Analyzed() = %d, want %d", got, want)
	}
	if !res.Degraded() {
		t.Error("Degraded() = false for a run with injected faults")
	}

	// Both failures carry the module name, the phase, and the right
	// kind; the panic also carries a stack naming the injection site.
	byModule := make(map[string]*faults.ModuleFailure)
	for _, f := range res.Failures {
		byModule[f.Module] = f
	}
	pf := byModule[panicMod]
	if pf == nil {
		t.Fatalf("no failure recorded for panicking module %s", panicMod)
	}
	if pf.Kind != obs.KindPanic || pf.Phase != obs.PhaseGenerate {
		t.Errorf("panic failure = kind %q phase %q, want panic/generate", pf.Kind, pf.Phase)
	}
	if !strings.Contains(pf.Message, "exploding module") {
		t.Errorf("panic message %q lacks the panic value", pf.Message)
	}
	if !strings.Contains(pf.Stack, "faultinjection_test") {
		t.Errorf("panic stack does not name the injection site:\n%s", pf.Stack)
	}
	tf := byModule[stallMod]
	if tf == nil {
		t.Fatalf("no failure recorded for stalled module %s", stallMod)
	}
	if tf.Kind != obs.KindTimeout {
		t.Errorf("stall failure kind = %q, want timeout", tf.Kind)
	}
	if tf.Elapsed < 300*time.Millisecond {
		t.Errorf("stall failure elapsed = %v, want >= the 300ms deadline", tf.Elapsed)
	}

	// Survivors are unaffected: same per-module solver counters as the
	// healthy baseline.
	for _, m := range res.Modules {
		if m.Failure != nil {
			continue
		}
		if got, want := m.Response.Diagnostics.Stats.String(), baseStats[m.Spec.Name]; got != want {
			t.Errorf("%s: SolveStats %q differ from baseline %q", m.Spec.Name, got, want)
		}
	}

	// The human summary flags the degradation; the JSON report names
	// both modules with their phases.
	if sum := res.Summary(); !strings.Contains(sum, "DEGRADED") {
		t.Errorf("Summary() does not flag the degraded run:\n%s", sum)
	}
	data, err := res.FailuresJSON(5)
	if err != nil {
		t.Fatalf("FailuresJSON: %v", err)
	}
	js := string(data)
	for _, want := range []string{panicMod, stallMod, `"phase": "generate"`, `"kind": "timeout"`} {
		if !strings.Contains(js, want) {
			t.Errorf("failure JSON lacks %q:\n%s", want, js)
		}
	}

	fs := res.FailureSummary(3)
	for _, want := range []string{panicMod, stallMod, "1 failed", "1 timed out"} {
		if !strings.Contains(fs, want) {
			t.Errorf("FailureSummary lacks %q:\n%s", want, fs)
		}
	}
}
