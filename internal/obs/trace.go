package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ---------------------------------------------------------------------
// Trace and span IDs

// traceSeed distinguishes trace IDs across processes; traceCounter
// distinguishes them within one. The splitmix64 finalizer is a
// bijection over uint64, so distinct counter values always yield
// distinct IDs — the uniqueness tests rely on this, not on chance.
var (
	traceSeed    = uint64(time.Now().UnixNano())
	traceCounter atomic.Uint64
)

// splitmix64 is the splitmix64 output finalizer (a bijective mixer).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewTraceID returns a 16-hex-character request trace ID, unique
// within the process and statistically unique across processes.
func NewTraceID() string {
	return fmt.Sprintf("%016x", splitmix64(traceSeed+traceCounter.Add(1)))
}

// NewSpanID returns a 16-hex-character span ID drawn from the same
// process-unique sequence as trace IDs.
func NewSpanID() string { return NewTraceID() }

// ---------------------------------------------------------------------
// Propagated trace context

// TraceContextHeader is the HTTP request header that carries a trace
// context across process boundaries: "<trace id>-<parent span id>",
// both 16 lowercase hex characters. A server that receives it adopts
// the trace ID and parents its root span under the given span, so the
// caller's attempt span becomes the parent of the callee's work.
const TraceContextHeader = "X-Lna-Trace-Context"

// SpanContext identifies one span within one trace — the unit of
// cross-process propagation.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// String renders the wire form carried by TraceContextHeader.
func (sc SpanContext) String() string { return sc.TraceID + "-" + sc.SpanID }

// isHex16 reports whether s is exactly 16 lowercase hex characters.
func isHex16(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ParseTraceContext parses the wire form of TraceContextHeader.
// Malformed values (wrong length, bad hex) report ok=false: a
// propagation header is advisory, never a request error.
func ParseTraceContext(s string) (SpanContext, bool) {
	a, b, found := strings.Cut(s, "-")
	if !found || !isHex16(a) || !isHex16(b) {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: a, SpanID: b}, true
}

// ---------------------------------------------------------------------
// Spans

// Span is one completed interval within a trace: a pipeline phase, a
// cache probe, or the whole request. Args carry flat key,value pairs
// (kept as a slice, not a map, so exports are deterministic).
type Span struct {
	ID     string // 16-hex span ID, process-unique
	Parent string // parent span ID; "" for a root span
	Name   string
	Cat    string // coarse category: "phase", "request", "cache", ...
	Start  time.Time
	Dur    time.Duration
	Args   []string
}

// maxTraceSpans bounds one trace's span count so a pathological
// request (a multi-module program with thousands of modules) cannot
// grow a trace without limit; spans past the cap are dropped
// silently.
const maxTraceSpans = 4096

// Trace collects the spans of one request under a process-unique
// trace ID. The zero of the type is never used; a nil *Trace is the
// disabled state, and every method no-ops on it — instrumented code
// paths never branch on whether tracing is on.
//
// Parentage is assigned two ways. StartSpan pushes its span as the
// trace's default parent until End, so plain Add calls made inside
// the window (pipeline phases, cache probes) nest under it without
// knowing about span IDs at all. Concurrent work — batch
// sub-requests — uses StartChild with an explicit parent instead,
// because a shared mutable "current parent" is meaningless across
// goroutines.
type Trace struct {
	id     string
	module string

	mu     sync.Mutex
	spans  []Span
	parent string // current default parent span ID
}

// NewTrace starts an empty trace for the named module, assigning a
// fresh trace ID.
func NewTrace(module string) *Trace {
	return &Trace{id: NewTraceID(), module: module}
}

// NewTraceContext starts a trace for the named module under a
// propagated context: the trace adopts sc.TraceID, and spans recorded
// before any StartSpan parent under sc.SpanID — so a replica's root
// span hangs off the gateway's attempt span in the merged view. A
// zero SpanContext degrades to NewTrace.
func NewTraceContext(module string, sc SpanContext) *Trace {
	t := &Trace{id: sc.TraceID, module: module, parent: sc.SpanID}
	if t.id == "" {
		t.id = NewTraceID()
	}
	return t
}

// ID returns the trace ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Module returns the module name the trace was started for.
func (t *Trace) Module() string {
	if t == nil {
		return ""
	}
	return t.module
}

// addLocked appends a span, enforcing the cap. Caller holds t.mu.
func (t *Trace) addLocked(s Span) {
	if len(t.spans) < maxTraceSpans {
		t.spans = append(t.spans, s)
	}
}

// Add records one completed span under the current default parent.
// kv is a flat key,value list.
func (t *Trace) Add(name, cat string, start time.Time, dur time.Duration, kv ...string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.addLocked(Span{ID: NewSpanID(), Parent: t.parent, Name: name, Cat: cat, Start: start, Dur: dur, Args: kv})
	t.mu.Unlock()
}

// Start opens a span now and returns the closure that completes it;
// extra key,value args may be supplied at close time. The span's
// parent is the default parent at close time.
func (t *Trace) Start(name, cat string) func(kv ...string) {
	if t == nil {
		return func(...string) {}
	}
	start := time.Now()
	return func(kv ...string) {
		t.Add(name, cat, start, time.Since(start), kv...)
	}
}

// SpanScope is an open span with an allocated ID, returned by
// StartSpan and StartChild. Its ID is known before the span closes,
// so it can be propagated (into a header, a context, a child span)
// while the work is still running. Nil receivers no-op.
type SpanScope struct {
	t      *Trace
	id     string
	parent string // parent of this span; also the stack value End restores
	name   string
	cat    string
	start  time.Time
	pop    bool // true when StartSpan pushed the default-parent stack
}

// StartSpan opens a span and pushes it as the trace's default parent:
// until End, plain Add/Start calls parent under it. Use for the
// single-threaded nesting of a request's own control flow.
func (t *Trace) StartSpan(name, cat string) *SpanScope {
	if t == nil {
		return nil
	}
	sc := &SpanScope{t: t, id: NewSpanID(), name: name, cat: cat, start: time.Now(), pop: true}
	t.mu.Lock()
	sc.parent = t.parent
	t.parent = sc.id
	t.mu.Unlock()
	return sc
}

// StartChild opens a span under an explicit parent without touching
// the default-parent stack. Use for concurrent work (batch
// sub-requests) where several open spans share one parent.
func (t *Trace) StartChild(parent, name, cat string) *SpanScope {
	if t == nil {
		return nil
	}
	return &SpanScope{t: t, id: NewSpanID(), parent: parent, name: name, cat: cat, start: time.Now()}
}

// ID returns the open span's ID ("" on nil).
func (s *SpanScope) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Context returns the propagation context naming this open span.
func (s *SpanScope) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.t.ID(), SpanID: s.id}
}

// End records the span, with any extra key,value args, and — for
// StartSpan scopes — restores the previous default parent.
func (s *SpanScope) End(kv ...string) {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	s.t.mu.Lock()
	s.t.addLocked(Span{ID: s.id, Parent: s.parent, Name: s.name, Cat: s.cat, Start: s.start, Dur: dur, Args: kv})
	if s.pop && s.t.parent == s.id {
		s.t.parent = s.parent
	}
	s.t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// ---------------------------------------------------------------------
// Trace export
//
// TraceExport is the wire form of one process's fragment of a trace,
// served by /v1/trace/{id}. The fetcher collects fragments from the
// gateway and each replica and merges them into one Chrome trace;
// absolute microsecond timestamps keep the fragments alignable.

// SpanExport is the wire form of one span.
type SpanExport struct {
	ID     string   `json:"id"`
	Parent string   `json:"parent,omitempty"`
	Name   string   `json:"name"`
	Cat    string   `json:"cat,omitempty"`
	Start  int64    `json:"start_us"` // µs since the Unix epoch
	Dur    int64    `json:"dur_us"`
	Args   []string `json:"args,omitempty"`
}

// TraceExport is one process's fragment of a trace.
type TraceExport struct {
	TraceID string       `json:"trace_id"`
	Process string       `json:"process,omitempty"` // e.g. "gateway", "replica"
	Module  string       `json:"module,omitempty"`
	Spans   []SpanExport `json:"spans"`
}

// Export snapshots the trace as a wire fragment attributed to the
// named process (nil trace exports nil).
func (t *Trace) Export(process string) *TraceExport {
	if t == nil {
		return nil
	}
	spans := t.Spans()
	out := &TraceExport{TraceID: t.ID(), Process: process, Module: t.Module(), Spans: make([]SpanExport, 0, len(spans))}
	for _, s := range spans {
		out.Spans = append(out.Spans, SpanExport{
			ID: s.ID, Parent: s.Parent, Name: s.Name, Cat: s.Cat,
			Start: s.Start.UnixMicro(), Dur: s.Dur.Microseconds(), Args: s.Args,
		})
	}
	return out
}

// ---------------------------------------------------------------------
// Chrome trace_event export
//
// The exporter writes the Chrome trace_event JSON format (the
// chrome://tracing / Perfetto "JSON Array Format"): complete events
// (ph "X") with microsecond timestamps, one tid per trace fragment,
// plus thread_name metadata events naming each fragment's module. In
// the merged multi-process view, each distinct Process name becomes
// its own pid with a process_name metadata event; span_id/parent_id
// in event args carry the exact parent links, which time-containment
// nesting alone cannot (spans from different processes share a
// timeline but not a tid).

// chromeEvent is one trace_event entry.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes this trace alone; see WriteChromeTraces.
func (t *Trace) WriteChrome(w io.Writer) error {
	return WriteChromeTraces(w, t)
}

// WriteChromeTraces renders in-process traces as one Chrome
// trace_event JSON document; see WriteChromeExports for the layout.
// All traces share pid 1 (one process, no process_name metadata).
func WriteChromeTraces(w io.Writer, traces ...*Trace) error {
	exports := make([]*TraceExport, 0, len(traces))
	for _, t := range traces {
		if t == nil {
			continue
		}
		exports = append(exports, t.Export(""))
	}
	return WriteChromeExports(w, exports...)
}

// WriteChromeExports renders trace fragments as one Chrome
// trace_event JSON document ({"traceEvents": [...]}). Each distinct
// Process name becomes a pid (fragments with the empty process share
// pid 1 and get no process_name event); each fragment becomes its own
// "thread" (tid) within its pid, named after its module and trace ID.
// Timestamps are relative to the earliest span across all fragments,
// so the viewer's origin is the first event rather than the Unix
// epoch. Every complete event carries trace_id, span_id, and (when
// present) parent_id in its args — the explicit cross-process parent
// links a merged view needs.
func WriteChromeExports(w io.Writer, exports ...*TraceExport) error {
	type proc struct {
		pid     int
		name    string
		nextTid int
	}
	var procs []*proc
	procByName := map[string]*proc{}
	type flat struct {
		pid, tid int
		ex       *TraceExport
	}
	var flats []flat
	var origin int64
	haveOrigin := false
	for _, ex := range exports {
		if ex == nil {
			continue
		}
		p, ok := procByName[ex.Process]
		if !ok {
			p = &proc{pid: len(procs) + 1, name: ex.Process}
			procs = append(procs, p)
			procByName[ex.Process] = p
		}
		p.nextTid++
		flats = append(flats, flat{pid: p.pid, tid: p.nextTid, ex: ex})
		for _, s := range ex.Spans {
			if !haveOrigin || s.Start < origin {
				origin = s.Start
				haveOrigin = true
			}
		}
	}
	events := []chromeEvent{}
	for _, p := range procs {
		if p.name == "" {
			continue
		}
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: p.pid, Tid: 0,
			Args: map[string]any{"name": p.name},
		})
	}
	for _, f := range flats {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: f.pid, Tid: f.tid,
			Args: map[string]any{"name": fmt.Sprintf("%s [%s]", f.ex.Module, f.ex.TraceID)},
		})
	}
	for _, f := range flats {
		for _, s := range f.ex.Spans {
			ev := chromeEvent{
				Name: s.Name,
				Cat:  s.Cat,
				Ph:   "X",
				Ts:   float64(s.Start - origin),
				Dur:  float64(s.Dur),
				Pid:  f.pid,
				Tid:  f.tid,
			}
			ev.Args = make(map[string]any, len(s.Args)/2+3)
			for i := 0; i+1 < len(s.Args); i += 2 {
				ev.Args[s.Args[i]] = s.Args[i+1]
			}
			ev.Args["trace_id"] = f.ex.TraceID
			if s.ID != "" {
				ev.Args["span_id"] = s.ID
			}
			if s.Parent != "" {
				ev.Args["parent_id"] = s.Parent
			}
			events = append(events, ev)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}
