package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafeInstruments(t *testing.T) {
	var c *Counter
	var h *Histogram
	var tr *Trace
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	h.Observe(time.Second)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram must be empty")
	}
	tr.Add("x", "y", time.Now(), 0)
	tr.Start("x", "y")()
	if tr.ID() != "" || tr.Spans() != nil {
		t.Fatal("nil trace must be inert")
	}
}

// TestHistogramBucketBoundaries pins the "le" semantics: an
// observation equal to a bucket's upper bound lands in that bucket;
// one nanosecond more lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond}
	h := NewHistogram(bounds)
	h.Observe(time.Millisecond)       // == bound 0 → bucket 0
	h.Observe(time.Millisecond + 1)   // just over → bucket 1
	h.Observe(10 * time.Millisecond)  // == bound 1 → bucket 1
	h.Observe(99 * time.Millisecond)  // bucket 2
	h.Observe(200 * time.Millisecond) // overflow bucket
	h.Observe(-5 * time.Millisecond)  // clamps to 0 → bucket 0
	s := h.Snapshot()
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d: got %d want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Fatalf("count: got %d want 6", s.Count)
	}
	if s.Max != 200*time.Millisecond {
		t.Fatalf("max: got %v", s.Max)
	}
	if s.Sum != time.Millisecond+(time.Millisecond+1)+10*time.Millisecond+99*time.Millisecond+200*time.Millisecond {
		t.Fatalf("sum: got %v", s.Sum)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond})
	// 100 observations uniformly in the first bucket.
	for i := 0; i < 100; i++ {
		h.Observe(5 * time.Millisecond)
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.5)
	if p50 <= 0 || p50 > 10*time.Millisecond {
		t.Fatalf("p50 %v outside the only populated bucket", p50)
	}
	// Push 100 more into the overflow bucket: p95 must report Max.
	for i := 0; i < 100; i++ {
		h.Observe(time.Second)
	}
	s = h.Snapshot()
	if got := s.Quantile(0.95); got != time.Second {
		t.Fatalf("p95 in overflow bucket must report max; got %v", got)
	}
	if got := s.Quantile(0.25); got > 10*time.Millisecond {
		t.Fatalf("p25 must stay in the first bucket; got %v", got)
	}
	if mean := s.Mean(); mean != (100*5*time.Millisecond+100*time.Second)/200 {
		t.Fatalf("mean: got %v", mean)
	}
}

func TestQuantileEmpty(t *testing.T) {
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile: got %v", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	la := r.Counter("y_total", "help", "mode", "check")
	lb := r.Counter("y_total", "help", "mode", "infer")
	if la == lb {
		t.Fatal("distinct labels must be distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.GaugeFunc("x_total", "help", func() int64 { return 0 })
}

func TestGaugeFuncReplacement(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("q_depth", "queue", func() int64 { return 1 })
	r.GaugeFunc("q_depth", "queue", func() int64 { return 42 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "q_depth 42") {
		t.Fatalf("last-registered gauge func must win:\n%s", buf.String())
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("lna_requests_total", "Requests by mode.", "mode", "qual").Add(7)
	r.GaugeFunc("lna_queue_depth", "Queue depth.", func() int64 { return 3 })
	h := r.Histogram("lna_phase_seconds", "Phase latency.", []time.Duration{time.Millisecond, time.Second}, "phase", "solve")
	h.Observe(500 * time.Microsecond)
	h.Observe(2 * time.Second)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE lna_requests_total counter",
		`lna_requests_total{mode="qual"} 7`,
		"# TYPE lna_queue_depth gauge",
		"lna_queue_depth 3",
		"# TYPE lna_phase_seconds histogram",
		`lna_phase_seconds_bucket{phase="solve",le="0.001"} 1`,
		`lna_phase_seconds_bucket{phase="solve",le="1"} 1`,
		`lna_phase_seconds_bucket{phase="solve",le="+Inf"} 2`,
		`lna_phase_seconds_sum{phase="solve"} 2.0005`,
		`lna_phase_seconds_count{phase="solve"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A.").Add(2)
	r.Histogram("lat_seconds", "L.", []time.Duration{time.Millisecond}, "phase", "parse").Observe(time.Microsecond)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name   string `json:"name"`
			Type   string `json:"type"`
			Series []struct {
				Labels map[string]string `json:"labels"`
				Value  *int64            `json:"value"`
				Count  *uint64           `json:"count"`
				P95Ns  *int64            `json:"p95_ns"`
				Bucket []struct {
					LeNs  int64  `json:"le_ns"`
					Count uint64 `json:"count"`
				} `json:"buckets"`
			} `json:"series"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Metrics) != 2 {
		t.Fatalf("want 2 families, got %d", len(doc.Metrics))
	}
	if doc.Metrics[0].Name != "a_total" || *doc.Metrics[0].Series[0].Value != 2 {
		t.Fatalf("counter family mangled: %+v", doc.Metrics[0])
	}
	hs := doc.Metrics[1].Series[0]
	if hs.Labels["phase"] != "parse" || *hs.Count != 1 {
		t.Fatalf("histogram series mangled: %+v", hs)
	}
	// Buckets are cumulative and end with the +Inf (-1) bucket.
	if last := hs.Bucket[len(hs.Bucket)-1]; last.LeNs != -1 || last.Count != 1 {
		t.Fatalf("bad +Inf bucket: %+v", last)
	}
}

// TestRegistryConcurrent hammers registration and scraping from many
// goroutines; run under -race this is the registry's thread-safety
// proof, and it checks scraped counters are monotonic.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "h")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Inc()
				r.Counter("hits_total", "h").Add(1)
				r.Histogram("lat", "l", nil, "w", string(rune('a'+w))).Observe(time.Duration(i))
			}
		}(w)
	}
	var prev int64
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := r.WriteJSON(&buf); err != nil {
				t.Error(err)
				return
			}
			var doc struct {
				Metrics []struct {
					Name   string `json:"name"`
					Series []struct {
						Value *int64 `json:"value"`
					} `json:"series"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Error(err)
				return
			}
			for _, m := range doc.Metrics {
				if m.Name == "hits_total" {
					if v := *m.Series[0].Value; v < prev {
						t.Errorf("counter went backwards: %d -> %d", prev, v)
						return
					} else {
						prev = v
					}
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scraperDone
	if got := c.Value(); got != 8*2000*2 {
		t.Fatalf("lost increments: got %d want %d", got, 8*2000*2)
	}
}

func TestCounterFuncReplacement(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("hits_total", "hits", func() uint64 { return 1 }, "tier", "a")
	r.CounterFunc("hits_total", "hits", func() uint64 { return 42 }, "tier", "a")
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE hits_total counter") || !strings.Contains(out, `hits_total{tier="a"} 42`) {
		t.Fatalf("last-registered counter func must win, typed counter:\n%s", out)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter func as a gauge must panic")
		}
	}()
	r.GaugeFunc("hits_total", "hits", func() int64 { return 0 })
}

func TestReplaceFuncsDropsOlderSeries(t *testing.T) {
	r := NewRegistry()
	r.ReplaceCounterFuncs("attempts_total", "attempts", []FuncSeries{
		{Labels: []string{"backend", "old"}, Fn: func() int64 { return 1 }},
	})
	r.ReplaceCounterFuncs("attempts_total", "attempts", []FuncSeries{
		{Labels: []string{"backend", "new"}, Fn: func() int64 { return 7 }},
		{Labels: []string{"backend", "new"}, Fn: func() int64 { return 8 }},
	})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "old") || strings.Count(out, `attempts_total{backend="new"} 8`) != 1 ||
		!strings.Contains(out, "# TYPE attempts_total counter") {
		t.Fatalf("want one series, the newest, typed counter:\n%s", out)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("replacing a counter family with gauges must panic")
		}
	}()
	r.ReplaceGaugeFuncs("attempts_total", "attempts", nil)
}
