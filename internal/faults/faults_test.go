package faults

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
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

// goid returns the calling goroutine's ID, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// waitParked waits until at least n analysis goroutines are parked.
func waitParked(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		parked.mu.Lock()
		got := len(parked.wakes)
		parked.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines parked, want at least %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunBoundedReusesGoroutine(t *testing.T) {
	var ids []string
	for i := 0; i < 5; i++ {
		if f := RunBounded(context.Background(), "m", time.Minute, NewTrace(), func(ctx context.Context) error {
			ids = append(ids, goid())
			return nil
		}); f != nil {
			t.Fatalf("unexpected failure: %v", f)
		}
	}
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("sequential calls ran on goroutines %v, want one", ids)
		}
	}
	if ids[0] == goid() {
		t.Fatal("the analysis ran on the caller's goroutine")
	}
}

func TestRunBoundedAbandonedGoroutineTakesNoJob(t *testing.T) {
	release, returned := make(chan struct{}), make(chan struct{})
	abandoned := make(chan string, 1)
	f := RunBounded(context.Background(), "slow", 20*time.Millisecond, NewTrace(), func(ctx context.Context) error {
		defer close(returned)
		abandoned <- goid()
		<-release // ignores ctx: the guard must abandon it
		return nil
	})
	if f == nil || f.Kind != obs.KindTimeout || !strings.Contains(f.Message, "abandoned") {
		t.Fatalf("got %+v", f)
	}
	slowID := <-abandoned
	// While the abandoned job runs, its goroutine is not parked: other
	// calls, sequential or concurrent, complete on other goroutines.
	results := make(chan string, 4)
	for i := 0; i < 4; i++ {
		go func() {
			var id string
			if f := RunBounded(context.Background(), "quick", 5*time.Second, NewTrace(), func(ctx context.Context) error {
				id = goid()
				return nil
			}); f != nil {
				t.Errorf("unexpected failure: %v", f)
			}
			results <- id
		}()
	}
	for i := 0; i < 4; i++ {
		if id := <-results; id == slowID {
			t.Fatalf("goroutine %s took a job while its abandoned one was still running", slowID)
		}
	}
	// Once its job returns, the goroutine parks (unless the set is
	// full); wait for that, so that it parks within this test.
	parked.mu.Lock()
	before := len(parked.wakes)
	parked.mu.Unlock()
	close(release)
	<-returned
	if before < maxParked() {
		waitParked(t, before+1)
	}
}

func TestRunBoundedGoroutineSurvivesPanic(t *testing.T) {
	var panicked string
	tr := NewTrace()
	f := RunBounded(context.Background(), "m", time.Minute, tr, func(ctx context.Context) error {
		panicked = goid()
		tr.Enter(obs.PhaseInfer)
		panic("injected")
	})
	if f == nil || f.Kind != obs.KindPanic || f.Phase != obs.PhaseInfer {
		t.Fatalf("got %+v", f)
	}
	var next string
	if f := RunBounded(context.Background(), "m", time.Minute, NewTrace(), func(ctx context.Context) error {
		next = goid()
		return nil
	}); f != nil {
		t.Fatalf("the job after a recovered panic failed: %v", f)
	}
	if next != panicked {
		t.Fatalf("the job after a recovered panic ran on goroutine %s, not on %s", next, panicked)
	}
}

func TestParkedGoroutinesAreCapped(t *testing.T) {
	n := maxParked() + 3
	release := make(chan struct{})
	var started, wg sync.WaitGroup
	started.Add(n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if f := RunBounded(context.Background(), "m", 0, NewTrace(), func(ctx context.Context) error {
				started.Done()
				<-release
				return nil
			}); f != nil {
				t.Errorf("unexpected failure: %v", f)
			}
		}()
	}
	started.Wait() // n jobs hold n goroutines at once
	close(release)
	wg.Wait() // each goroutine parks, or exits, before its caller returns
	parked.mu.Lock()
	got := len(parked.wakes)
	parked.mu.Unlock()
	if got != maxParked() {
		t.Fatalf("%d goroutines parked after %d concurrent jobs, want the cap %d", got, n, maxParked())
	}
}
