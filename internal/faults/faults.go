// Package faults provides per-module fault containment for the
// analysis pipeline: structured failure records, phase tracking with
// timings, and guards that convert panics and missed deadlines into
// values a corpus driver can aggregate instead of crashing on.
//
// The 589-module experiment (Section 7) must degrade gracefully: a
// panic or a pathological constraint system in one module may fail
// that module, but never the run. Workers wrap each module's analysis
// in Run (recover) or RunBounded (recover + wall-clock deadline);
// long-running loops such as the constraint solver call CheckDeadline
// periodically so a context cancellation aborts them cooperatively.
package faults

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"localalias/internal/obs"
)

// ModuleFailure is the structured record of one module's failure:
// what module, in which phase, why, and (for panics) where. It
// implements error so pipeline results can carry it in error-typed
// fields.
type ModuleFailure struct {
	Module  string        `json:"module"`
	Phase   obs.Phase     `json:"phase"`
	Kind    obs.Kind      `json:"kind"`
	Message string        `json:"message"`
	Stack   string        `json:"stack,omitempty"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

func (f *ModuleFailure) Error() string {
	return fmt.Sprintf("module %s: %s during %s: %s", f.Module, f.Kind, f.Phase, f.Message)
}

// PhaseTiming is the accumulated wall-clock time one module spent in
// one phase.
type PhaseTiming struct {
	Phase   obs.Phase     `json:"phase"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Trace tracks which phase a module's analysis is currently in and
// accumulates per-phase timings. It is safe for concurrent use: the
// analysis goroutine advances it while a deadline watcher may read
// Current from outside.
type Trace struct {
	mu     sync.Mutex
	phase  obs.Phase
	start  time.Time
	phases []PhaseTiming // per-phase totals in first-entry order
	// spans, when non-nil, receives one obs span per phase interval as
	// it closes — the bridge from coarse phase tracking to real
	// request tracing. nil (the default) costs nothing.
	spans *obs.Trace
}

// NewTrace starts a trace for one module's analysis.
func NewTrace() *Trace {
	return &Trace{phases: make([]PhaseTiming, 0, len(obs.Phases()))}
}

// SetSpans attaches an obs trace: every phase interval the trace
// closes from now on is also recorded as a span (category "phase").
// Safe on a nil Trace, and a nil ot detaches.
func (t *Trace) SetSpans(ot *obs.Trace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = ot
	t.mu.Unlock()
}

// Enter marks the start of phase p, closing the timing of the phase
// previously entered (if any). Re-entering a phase accumulates.
func (t *Trace) Enter(p obs.Phase) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeLocked(now)
	t.phase, t.start = p, now
}

// closeLocked folds the currently open phase into the accumulator
// and, when an obs trace is attached, emits the interval as a span.
// A phase interrupted and re-entered emits one span per interval —
// exactly what a trace viewer should show.
func (t *Trace) closeLocked(now time.Time) {
	if t.phase == "" {
		return
	}
	i := 0
	for i < len(t.phases) && t.phases[i].Phase != t.phase {
		i++
	}
	if i == len(t.phases) {
		t.phases = append(t.phases, PhaseTiming{Phase: t.phase})
	}
	if d := now.Sub(t.start); d >= 0 {
		t.phases[i].Elapsed += d
		t.spans.Add(string(t.phase), "phase", t.start, d)
	}
	t.start = now
}

// Current returns the phase most recently entered ("" before the
// first Enter).
func (t *Trace) Current() obs.Phase {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.phase
}

// Timings returns the per-phase wall-clock breakdown in first-entry
// order, including the still-open phase up to now.
func (t *Trace) Timings() []PhaseTiming {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeLocked(now)
	out := make([]PhaseTiming, len(t.phases))
	copy(out, t.phases)
	return out
}

// ---------------------------------------------------------------------
// Deadline abort

// deadlineAbort is the sentinel panic payload thrown by CheckDeadline
// and converted back into an obs.KindTimeout failure by Run. It never
// escapes a Run guard.
type deadlineAbort struct{ err error }

// CheckDeadline aborts the current analysis with a timeout failure if
// ctx has been cancelled or its deadline has passed. Long CPU-bound
// loops (the solver's propagation loop in particular) call it
// periodically so a per-module deadline interrupts them between
// iterations rather than leaking a runaway goroutine. It must only be
// called under a Run/RunBounded guard; a nil ctx is a no-op.
func CheckDeadline(ctx context.Context) {
	if ctx == nil {
		return
	}
	if err := ctx.Err(); err != nil {
		panic(deadlineAbort{err})
	}
}

// ---------------------------------------------------------------------
// Guards

// Run executes fn under a recover guard, attributing any failure to
// the trace's current phase. It returns nil on success; a panic
// becomes an obs.KindPanic failure with a trimmed stack, a
// CheckDeadline abort becomes obs.KindTimeout, and a returned error
// becomes obs.KindError.
func Run(module string, tr *Trace, fn func() error) (fail *ModuleFailure) {
	start := time.Now()
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		mf := &ModuleFailure{Module: module, Phase: tr.Current(), Elapsed: time.Since(start)}
		if da, ok := p.(deadlineAbort); ok {
			mf.Kind = obs.KindTimeout
			mf.Message = da.err.Error()
		} else {
			mf.Kind = obs.KindPanic
			mf.Message = fmt.Sprint(p)
			mf.Stack = trimStack(debug.Stack())
		}
		fail = mf
	}()
	if err := fn(); err != nil {
		return &ModuleFailure{
			Module: module, Phase: tr.Current(), Kind: obs.KindError,
			Message: err.Error(), Elapsed: time.Since(start),
		}
	}
	return nil
}

// graceAfterDeadline is how long RunBounded waits, after the deadline
// expires, for the analysis goroutine to notice the cancellation
// (via CheckDeadline) and deliver a structured failure itself.
const graceAfterDeadline = 100 * time.Millisecond

// RunBounded is Run with a wall-clock deadline: fn executes on an
// analysis goroutine (see dispatch) with a context that expires after
// timeout (0 means no deadline beyond ctx's own). If the deadline
// passes and fn does not abort cooperatively within a short grace
// period, RunBounded abandons the goroutine and returns an
// obs.KindTimeout failure with the phase the trace last entered — one
// pathological module cannot stall the worker that ran it. The
// abandoned goroutine keeps running fn and takes no other job until fn
// returns.
func RunBounded(ctx context.Context, module string, timeout time.Duration, tr *Trace, fn func(context.Context) error) *ModuleFailure {
	if ctx == nil {
		ctx = context.Background()
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	done := make(chan *ModuleFailure, 1)
	dispatch(job{
		run:  func() *ModuleFailure { return Run(module, tr, func() error { return fn(ctx) }) },
		done: done,
	})
	select {
	case f := <-done:
		return f
	case <-ctx.Done():
	}
	// Deadline passed; prefer the goroutine's own (phase-accurate)
	// timeout failure if it aborts within the grace period.
	grace := time.NewTimer(graceAfterDeadline)
	defer grace.Stop()
	select {
	case f := <-done:
		return f
	case <-grace.C:
	}
	return &ModuleFailure{
		Module: module, Phase: tr.Current(), Kind: obs.KindTimeout,
		Message: fmt.Sprintf("%v (analysis goroutine abandoned)", ctx.Err()),
		Elapsed: time.Since(start),
	}
}

// ---------------------------------------------------------------------
// Analysis goroutines

// An analysis runs on a goroutine of its own, so that RunBounded can
// abandon it. The recursive-descent parser grows that goroutine's
// stack through several copies; a fresh goroutine per module paid for
// the growth every time. Instead a goroutine that finishes a job parks
// and takes the next one with the stack it already grew.

// parkedPerProc caps the parked analysis goroutines at this many per
// GOMAXPROCS, read at first use. A goroutine that finishes while the
// cap is full exits.
const parkedPerProc = 4

// job is one guarded analysis: run's result goes to done, which has
// room for it, so an abandoned job's goroutine never blocks on it.
type job struct {
	run  func() *ModuleFailure
	done chan<- *ModuleFailure
}

// parked is the stack of parked analysis goroutines, each represented
// by the channel it waits on. The most recently parked goroutine takes
// the next job, so a lone caller keeps reusing one goroutine.
var parked struct {
	mu    sync.Mutex
	wakes []chan job
}

var maxParked = sync.OnceValue(func() int { return parkedPerProc * runtime.GOMAXPROCS(0) })

// dispatch hands j to a parked analysis goroutine, or starts one when
// none is parked.
func dispatch(j job) {
	parked.mu.Lock()
	if n := len(parked.wakes); n > 0 {
		wake := parked.wakes[n-1]
		parked.wakes = parked.wakes[:n-1]
		parked.mu.Unlock()
		wake <- j
		return
	}
	parked.mu.Unlock()
	go analyze(j)
}

// analyze is the body of an analysis goroutine. It parks before it
// delivers each result, so a caller that receives the result and then
// dispatches again finds this goroutine parked. Between jobs it holds
// only its stack: the finished job is dead once its result is sent.
func analyze(j job) {
	wake := make(chan job, 1)
	for {
		f := j.run()
		again := park(wake)
		j.done <- f
		if !again {
			return
		}
		j = <-wake
	}
}

// park adds wake to the parked set unless the set is full.
func park(wake chan job) bool {
	parked.mu.Lock()
	defer parked.mu.Unlock()
	if len(parked.wakes) >= maxParked() {
		return false
	}
	parked.wakes = append(parked.wakes, wake)
	return true
}

// ---------------------------------------------------------------------
// Stack rendering

// maxStackLines bounds the frames kept in a ModuleFailure: enough to
// locate the fault, small enough for a 589-module failure report.
const maxStackLines = 24

// trimStack drops the goroutine header and the recover/guard frames
// from a debug.Stack dump and caps its length, keeping the frames
// that actually identify the fault.
func trimStack(stack []byte) string {
	lines := strings.Split(strings.TrimRight(string(stack), "\n"), "\n")
	// Drop the "goroutine N [running]:" header, then the capture
	// machinery: debug.Stack, this package's deferred recover
	// closure, and the runtime's panic frame. The first frame after
	// those is the one that panicked (each frame is a function line
	// plus a tab-indented file:line).
	i := 0
	if len(lines) > 0 && strings.HasPrefix(lines[0], "goroutine ") {
		i = 1
	}
	for i+1 < len(lines) {
		fn := lines[i]
		if strings.HasPrefix(fn, "runtime/debug.Stack") ||
			strings.Contains(fn, "faults.Run.func") ||
			strings.HasPrefix(fn, "panic(") || strings.HasPrefix(fn, "runtime.gopanic") {
			i += 2
			continue
		}
		break
	}
	lines = lines[i:]
	if len(lines) > maxStackLines {
		lines = append(lines[:maxStackLines:maxStackLines], "\t...")
	}
	return strings.Join(lines, "\n")
}

// TopFrame returns the first source location ("file.go:123") in a
// trimmed stack, for one-line diagnostics that must not dump a raw
// stack trace.
func TopFrame(stack string) string {
	for _, line := range strings.Split(stack, "\n") {
		if strings.HasPrefix(line, "\t") {
			loc := strings.TrimSpace(line)
			if i := strings.IndexByte(loc, ' '); i > 0 {
				loc = loc[:i] // drop the "+0x..." suffix
			}
			return loc
		}
	}
	return ""
}
