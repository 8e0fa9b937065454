package faults

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"localalias/internal/obs"
)

func TestRunSuccess(t *testing.T) {
	tr := NewTrace()
	if f := Run("m", tr, func() error { return nil }); f != nil {
		t.Fatalf("unexpected failure: %v", f)
	}
}

func TestRunError(t *testing.T) {
	tr := NewTrace()
	tr.Enter(obs.PhaseParse)
	f := Run("m", tr, func() error { return errors.New("boom") })
	if f == nil {
		t.Fatal("expected a failure")
	}
	if f.Kind != obs.KindError || f.Phase != obs.PhaseParse || f.Message != "boom" {
		t.Fatalf("got %+v", f)
	}
	if f.Stack != "" {
		t.Fatalf("error failures carry no stack, got %q", f.Stack)
	}
}

func TestRunPanic(t *testing.T) {
	tr := NewTrace()
	tr.Enter(obs.PhaseInfer)
	f := Run("m", tr, func() error {
		tr.Enter(obs.PhaseSolve)
		panic("solver invariant broken")
	})
	if f == nil {
		t.Fatal("expected a failure")
	}
	if f.Kind != obs.KindPanic || f.Phase != obs.PhaseSolve {
		t.Fatalf("got kind=%s phase=%s", f.Kind, f.Phase)
	}
	if !strings.Contains(f.Message, "solver invariant broken") {
		t.Fatalf("message %q", f.Message)
	}
	if f.Stack == "" || strings.HasPrefix(f.Stack, "goroutine ") || strings.Contains(f.Stack, "debug.Stack") {
		t.Fatalf("want a trimmed stack, got %q", f.Stack)
	}
	if !strings.Contains(f.Error(), "module m") || !strings.Contains(f.Error(), "solve") {
		t.Fatalf("Error() = %q", f.Error())
	}
	if top := TopFrame(f.Stack); !strings.Contains(top, ".go:") {
		t.Fatalf("TopFrame = %q from stack:\n%s", top, f.Stack)
	}
}

func TestCheckDeadlineAbort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := NewTrace()
	tr.Enter(obs.PhaseSolve)
	f := Run("m", tr, func() error {
		CheckDeadline(ctx)
		t.Error("CheckDeadline should have aborted")
		return nil
	})
	if f == nil || f.Kind != obs.KindTimeout || f.Phase != obs.PhaseSolve {
		t.Fatalf("got %+v", f)
	}
	// nil context never aborts.
	CheckDeadline(nil)
	CheckDeadline(context.Background())
}

func TestRunBoundedTimeoutAbandons(t *testing.T) {
	tr := NewTrace()
	tr.Enter(obs.PhaseQual)
	release := make(chan struct{})
	defer close(release)
	start := time.Now()
	f := RunBounded(context.Background(), "m", 50*time.Millisecond, tr, func(ctx context.Context) error {
		<-release // non-cooperative: ignores ctx entirely
		return nil
	})
	if f == nil || f.Kind != obs.KindTimeout || f.Phase != obs.PhaseQual {
		t.Fatalf("got %+v", f)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("abandonment took %v", el)
	}
}

func TestRunBoundedCooperativeTimeout(t *testing.T) {
	tr := NewTrace()
	f := RunBounded(context.Background(), "m", 30*time.Millisecond, tr, func(ctx context.Context) error {
		tr.Enter(obs.PhaseSolve)
		for {
			CheckDeadline(ctx)
			time.Sleep(time.Millisecond)
		}
	})
	if f == nil || f.Kind != obs.KindTimeout || f.Phase != obs.PhaseSolve {
		t.Fatalf("got %+v", f)
	}
}

func TestRunBoundedNoTimeout(t *testing.T) {
	tr := NewTrace()
	if f := RunBounded(context.Background(), "m", 0, tr, func(ctx context.Context) error { return nil }); f != nil {
		t.Fatalf("unexpected failure: %v", f)
	}
}

func TestTraceTimings(t *testing.T) {
	tr := NewTrace()
	tr.Enter(obs.PhaseParse)
	tr.Enter(obs.PhaseInfer)
	tr.Enter(obs.PhaseQual)
	tr.Enter(obs.PhaseQual) // re-entry accumulates, no duplicate row
	got := tr.Timings()
	if len(got) != 3 {
		t.Fatalf("want 3 phases, got %v", got)
	}
	want := []obs.Phase{obs.PhaseParse, obs.PhaseInfer, obs.PhaseQual}
	for i, pt := range got {
		if pt.Phase != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
		if pt.Elapsed < 0 {
			t.Fatalf("negative elapsed in %v", got)
		}
	}
	var nilTrace *Trace
	nilTrace.Enter(obs.PhaseParse) // nil trace is inert
	if nilTrace.Current() != "" || nilTrace.Timings() != nil {
		t.Fatal("nil trace should be inert")
	}
}
