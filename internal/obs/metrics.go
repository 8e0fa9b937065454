// Package obs is the zero-dependency observability layer of the
// toolkit: a process-wide metrics registry (atomic counters, callback
// counters and gauges, and fixed-bucket latency histograms),
// per-request span traces with unique trace IDs, and exporters for
// both — JSON and Prometheus text exposition for metrics, Chrome
// trace_event JSON for traces.
//
// Design constraints, in order:
//
//   - The disabled path must cost nothing measurable. Every handle is
//     nil-safe (method calls on a nil *Counter, *Histogram, or *Trace
//     are no-ops), and the always-on counters amount to a handful of
//     atomic adds per analysis, recorded once per solve rather than
//     per propagation step. A one-time comparison against the commit
//     before obs existed measured +0.4% on SolverPropagation (budget
//     <2%).
//   - Metric values must never ride in the canonical wire body of an
//     AnalyzeResponse — cached responses stay byte-stable. Timings
//     travel in headers, access logs, and the /v1/metrics endpoint.
//   - No third-party dependencies: the registry speaks the Prometheus
//     text exposition format directly and the trace exporter writes
//     the Chrome trace_event JSON schema directly.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ---------------------------------------------------------------------
// Instruments

// Counter is a monotonically increasing atomic counter. All methods
// are safe on a nil receiver (no-ops), so call sites never branch on
// whether instrumentation is wired up.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// DefaultLatencyBounds are the fixed histogram bucket upper bounds
// used for analysis latencies: 50µs to 10s, roughly 2.5× apart. A
// parse of a small module lands in the first buckets; a pathological
// solve near its 2-minute deadline lands in the overflow bucket, whose
// exact maximum is tracked separately.
var DefaultLatencyBounds = []time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
}

// Histogram is a fixed-bucket latency histogram: lock-free Observe
// (one atomic add into the bucket, plus count/sum/max updates), exact
// count/sum/max, and quantile estimates by linear interpolation within
// the matched bucket.
type Histogram struct {
	bounds []time.Duration // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64 // len(bounds)+1
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
}

// NewHistogram builds a histogram over the given ascending bucket
// upper bounds (nil selects DefaultLatencyBounds). Standalone
// histograms (outside any registry) are how batch drivers aggregate
// per-phase timings without touching process-wide state.
func NewHistogram(bounds []time.Duration) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one duration (negative values clamp to zero).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		old := h.max.Load()
		if int64(d) <= old || h.max.CompareAndSwap(old, int64(d)) {
			break
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Counts is per-bucket (not cumulative) and one longer than Bounds:
// the final entry is the overflow bucket.
type HistogramSnapshot struct {
	Bounds []time.Duration
	Counts []uint64
	Count  uint64
	Sum    time.Duration
	Max    time.Duration
}

// Snapshot copies the current state. Under concurrent Observe traffic
// the per-bucket counts may lag Count by in-flight observations; each
// individual counter is still monotonic.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    time.Duration(h.sum.Load()),
		Max:    time.Duration(h.max.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 < q ≤ 1) by linear
// interpolation within the bucket holding the target rank. Ranks
// falling in the overflow bucket report the tracked maximum.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	total := uint64(0)
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	seen := uint64(0)
	for i, c := range s.Counts {
		if seen+c <= rank {
			seen += c
			continue
		}
		if i == len(s.Bounds) { // overflow bucket
			return s.Max
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := (float64(rank-seen) + 0.5) / float64(c)
		return lo + time.Duration(frac*float64(hi-lo))
	}
	return s.Max
}

// Mean returns the average observed duration.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// ---------------------------------------------------------------------
// Registry

// metricKind discriminates the registry's instrument types.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one labeled instance within a metric family. labels is
// the rendered (escaped) form used only as the identity key; kv keeps
// the raw label values, so each exposition escapes exactly once in
// its own syntax instead of re-escaping the rendered key.
type series struct {
	labels  string   // rendered `k="v",k2="v2"` form, "" for unlabeled
	kv      []string // raw key,value list the series was created with
	counter *Counter
	fn      func() int64 // callback counters and gauges, read at scrape time
	hist    *Histogram
}

// family is one named metric with its help text and every labeled
// series, in registration order.
type family struct {
	name   string
	help   string
	kind   metricKind
	order  []string
	series map[string]*series
}

// Registry is a set of named metrics. Registration is
// get-or-create: asking for the same family+labels twice returns the
// same instrument, so packages can look handles up at init without
// coordinating ownership. All methods are safe for concurrent use;
// the instruments themselves are lock-free.
type Registry struct {
	mu       sync.Mutex
	order    []string
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry behind Default().
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry: the one the app-level
// metric set (App) registers into and /v1/metrics exposes.
func Default() *Registry { return defaultRegistry }

// renderLabels turns a flat k,v,k,v list into `k="v",k2="v2"`.
// Values are escaped per the Prometheus text format.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// labelEscaper escapes a label value for the text exposition. It is
// built once: a Replacer is safe for concurrent use.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// lookup finds or creates the series for family name + labels.
func (r *Registry) lookup(name, help string, kind metricKind, kv []string) *series {
	labels := renderLabels(kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, kind)
	s, ok := f.series[labels]
	if !ok {
		s = &series{labels: labels, kv: append([]string(nil), kv...)}
		f.series[labels] = s
		f.order = append(f.order, labels)
	}
	return s
}

// familyLocked finds or creates family name; r.mu must be held.
func (r *Registry) familyLocked(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// Counter returns the counter for name+labels, creating it on first
// use. kv is a flat key,value,key,value list.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	s := r.lookup(name, help, kindCounter, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// CounterFunc registers (or replaces) a callback counter: fn is read
// at scrape time, so a count kept on a server instance is exposed
// without a second copy. fn must be monotonic. As with GaugeFunc, the
// last registrant wins.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, kv ...string) {
	r.bind(name, help, kindCounter, func() int64 { return int64(fn()) }, kv)
}

// GaugeFunc registers (or replaces) a callback gauge: fn is invoked
// at scrape time. Replacement semantics let a new Server instance
// re-bind the queue-depth gauge without unregistering the old one —
// the last registrant wins, which is the live instance.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, kv ...string) {
	r.bind(name, help, kindGauge, fn, kv)
}

// FuncSeries is one labeled series of a callback family: its flat
// key,value label list and the callback read at scrape time.
type FuncSeries struct {
	Labels []string
	Fn     func() int64
}

// ReplaceCounterFuncs makes the callback counter family name hold
// exactly ss: every series an earlier registrant bound and ss does not
// name is dropped. It is the last-registrant-wins rule for a family
// whose label values belong to one instance (a gateway's backends), so
// a newer instance does not leave the older one's series behind.
func (r *Registry) ReplaceCounterFuncs(name, help string, ss []FuncSeries) {
	r.replace(name, help, kindCounter, ss)
}

// ReplaceGaugeFuncs is ReplaceCounterFuncs for a callback gauge family.
func (r *Registry) ReplaceGaugeFuncs(name, help string, ss []FuncSeries) {
	r.replace(name, help, kindGauge, ss)
}

func (r *Registry) replace(name, help string, kind metricKind, ss []FuncSeries) {
	rendered := make([]string, len(ss))
	for i, s := range ss {
		rendered[i] = renderLabels(s.Labels)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, kind)
	f.order = make([]string, 0, len(ss))
	f.series = make(map[string]*series, len(ss))
	for i, s := range ss {
		l := rendered[i]
		if _, dup := f.series[l]; !dup {
			f.order = append(f.order, l)
		}
		f.series[l] = &series{labels: l, kv: append([]string(nil), s.Labels...), fn: s.Fn}
	}
}

func (r *Registry) bind(name, help string, kind metricKind, fn func() int64, kv []string) {
	s := r.lookup(name, help, kind, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.fn = fn
}

// Histogram returns the histogram for name+labels, creating it with
// the given bounds (nil = DefaultLatencyBounds) on first use.
func (r *Registry) Histogram(name, help string, bounds []time.Duration, kv ...string) *Histogram {
	s := r.lookup(name, help, kindHistogram, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		s.hist = NewHistogram(bounds)
	}
	return s.hist
}

// ---------------------------------------------------------------------
// Exposition

// seriesJSON is one labeled series in the JSON exposition.
type seriesJSON struct {
	Labels map[string]string `json:"labels,omitempty"`
	// Counter / gauge value.
	Value *int64 `json:"value,omitempty"`
	// Histogram fields.
	Count  *uint64      `json:"count,omitempty"`
	SumNs  *int64       `json:"sum_ns,omitempty"`
	MaxNs  *int64       `json:"max_ns,omitempty"`
	P50Ns  *int64       `json:"p50_ns,omitempty"`
	P95Ns  *int64       `json:"p95_ns,omitempty"`
	Bucket []bucketJSON `json:"buckets,omitempty"`
}

type bucketJSON struct {
	LeNs  int64  `json:"le_ns"` // -1 encodes +Inf
	Count uint64 `json:"count"` // cumulative, Prometheus-style
}

// metricJSON is one family in the JSON exposition.
type metricJSON struct {
	Name   string       `json:"name"`
	Type   string       `json:"type"`
	Help   string       `json:"help,omitempty"`
	Series []seriesJSON `json:"series"`
}

// labelMap turns a raw k,v,k,v list into the map the JSON exposition
// wants. Values are the raw strings the series was registered with;
// JSON encoding applies its own escaping.
func labelMap(kv []string) map[string]string {
	if len(kv) == 0 {
		return nil
	}
	out := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		out[kv[i]] = kv[i+1]
	}
	return out
}

// snapshot copies the family/series structure under r.mu so the
// (lock-free) instrument reads happen outside the registry lock. Each
// series is copied by value: Counter, CounterFunc, GaugeFunc and
// Histogram set its instrument fields under r.mu after lookup has
// published it.
func (r *Registry) snapshot() []metricJSON {
	type seriesRef struct {
		kv []string
		s  series
	}
	type familyRef struct {
		name, help string
		kind       metricKind
		series     []seriesRef
	}
	r.mu.Lock()
	fams := make([]familyRef, 0, len(r.order))
	for _, name := range r.order {
		f := r.families[name]
		fr := familyRef{name: f.name, help: f.help, kind: f.kind}
		for _, l := range f.order {
			fr.series = append(fr.series, seriesRef{kv: f.series[l].kv, s: *f.series[l]})
		}
		fams = append(fams, fr)
	}
	r.mu.Unlock()

	out := make([]metricJSON, 0, len(fams))
	for _, fr := range fams {
		m := metricJSON{Name: fr.name, Type: string(fr.kind), Help: fr.help}
		for _, sr := range fr.series {
			sj := seriesJSON{Labels: labelMap(sr.kv)}
			switch {
			case sr.s.fn != nil:
				v := sr.s.fn()
				sj.Value = &v
			case fr.kind == kindCounter:
				v := int64(sr.s.counter.Value())
				sj.Value = &v
			case fr.kind == kindHistogram:
				hs := sr.s.hist.Snapshot()
				count, sum, max := hs.Count, int64(hs.Sum), int64(hs.Max)
				p50, p95 := int64(hs.Quantile(0.50)), int64(hs.Quantile(0.95))
				sj.Count, sj.SumNs, sj.MaxNs, sj.P50Ns, sj.P95Ns = &count, &sum, &max, &p50, &p95
				cum := uint64(0)
				for i, c := range hs.Counts {
					cum += c
					le := int64(-1)
					if i < len(hs.Bounds) {
						le = int64(hs.Bounds[i])
					}
					sj.Bucket = append(sj.Bucket, bucketJSON{LeNs: le, Count: cum})
				}
			}
			m.Series = append(m.Series, sj)
		}
		out = append(out, m)
	}
	return out
}

// WriteJSON writes the whole registry as an indented JSON document:
// {"metrics": [...]} with families in registration order.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"metrics": r.snapshot()})
}

// WritePrometheus writes the registry in the Prometheus text
// exposition format (version 0.0.4). Histogram bucket boundaries are
// rendered in seconds, as the convention requires.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, m := range r.snapshot() {
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Type); err != nil {
			return err
		}
		for _, s := range m.Series {
			labels := promLabels(s.Labels)
			switch m.Type {
			case "counter", "gauge":
				if _, err := fmt.Fprintf(w, "%s%s %d\n", m.Name, labels, *s.Value); err != nil {
					return err
				}
			case "histogram":
				for _, b := range s.Bucket {
					le := "+Inf"
					if b.LeNs >= 0 {
						le = formatSeconds(b.LeNs)
					}
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
						m.Name, promLabelsLe(s.Labels, le), b.Count); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.Name, labels, formatSeconds(*s.SumNs)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", m.Name, labels, *s.Count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// formatSeconds renders nanoseconds as a decimal seconds literal
// without float formatting jitter.
func formatSeconds(ns int64) string {
	s := fmt.Sprintf("%d.%09d", ns/1e9, ns%1e9)
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}

// promLabels renders a label map in sorted-key order.
func promLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, escapeLabel(labels[k]))
	}
	b.WriteByte('}')
	return b.String()
}

// promLabelsLe renders labels plus the histogram `le` bound.
func promLabelsLe(labels map[string]string, le string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for _, k := range keys {
		fmt.Fprintf(&b, `%s="%s",`, k, escapeLabel(labels[k]))
	}
	fmt.Fprintf(&b, `le="%s"}`, le)
	return b.String()
}
