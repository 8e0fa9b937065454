package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"localalias/internal/faults"
)

// Access-log formats accepted by NewAccessLogger.
const (
	// LogText renders one human-scannable line per request.
	LogText = "text"
	// LogJSON renders one JSON object per line (machine-ingestible).
	LogJSON = "json"
)

// AccessEntry is one HTTP request's log record. Every field the
// operator needs to correlate a request with its trace and cache
// behaviour rides here — and NOT in the response body, which must
// stay byte-stable for caching. The daemon and the gateway share the
// type (and the logger): the gateway additionally fills Backend,
// Attempts, and the relayed Xmodule summary.
type AccessEntry struct {
	Time   time.Time `json:"time"`
	Method string    `json:"method"`
	Path   string    `json:"path"`
	Status int       `json:"status"`
	DurMs  float64   `json:"dur_ms"`
	Trace  string    `json:"trace,omitempty"`
	Cache  string    `json:"cache,omitempty"` // hit|miss (single analyze)
	// Xmodule is the whole-program pass summary of a multi_module
	// request ("modules=N;analyzed=A;failed=F"), mirroring the
	// X-Lna-Xmodule response header.
	Xmodule string `json:"xmodule,omitempty"`
	Module  string `json:"module,omitempty"`
	Mode    string `json:"mode,omitempty"`
	Modules int    `json:"modules,omitempty"` // batch size
	Hits    int    `json:"hits,omitempty"`    // batch cache hits
	Misses  int    `json:"misses,omitempty"`  // batch cache misses
	// Backend and Attempts are gateway-side routing facts: which
	// replica served the request and how many placement attempts
	// (including retries) it took.
	Backend  string `json:"backend,omitempty"`
	Attempts int    `json:"attempts,omitempty"`

	// Phases is the per-phase wall-clock breakdown of a cold run
	// (empty on cache hits — the work happened on the cold request).
	Phases []faults.PhaseTiming `json:"phases,omitempty"`
}

// AccessLogger serializes access entries to one writer in one of the
// two formats. A nil logger (logging disabled) is a no-op.
type AccessLogger struct {
	mu     sync.Mutex
	w      io.Writer
	asJSON bool
}

// NewAccessLogger builds a logger writing format ("" = LogText) to w.
// An unknown format is an error.
func NewAccessLogger(w io.Writer, format string) (*AccessLogger, error) {
	switch format {
	case LogJSON:
		return &AccessLogger{w: w, asJSON: true}, nil
	case LogText, "":
		return &AccessLogger{w: w}, nil
	}
	return nil, fmt.Errorf("unknown access-log format %q (want %s|%s)", format, LogText, LogJSON)
}

// Track starts one request's access record. It wraps rw so the status
// the handler writes is captured, and returns the record for the
// handler to fill in. The returned func stamps status and duration and
// logs the record; handlers defer it. A nil logger still captures the
// status.
func (l *AccessLogger) Track(rw http.ResponseWriter, r *http.Request) (*StatusWriter, *AccessEntry, func()) {
	w := &StatusWriter{ResponseWriter: rw}
	e := &AccessEntry{Time: time.Now(), Method: r.Method, Path: r.URL.Path}
	return w, e, func() {
		e.Status = w.Status()
		e.DurMs = float64(time.Since(e.Time)) / float64(time.Millisecond)
		l.Log(*e)
	}
}

// Log writes one entry; concurrent requests serialize on the mutex so
// lines never interleave.
func (l *AccessLogger) Log(e AccessEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.asJSON {
		data, err := json.Marshal(e)
		if err != nil {
			return
		}
		l.w.Write(append(data, '\n'))
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s %d %.1fms",
		e.Time.Format(time.RFC3339), e.Method, e.Path, e.Status, e.DurMs)
	if e.Trace != "" {
		fmt.Fprintf(&b, " trace=%s", e.Trace)
	}
	if e.Cache != "" {
		fmt.Fprintf(&b, " cache=%s", e.Cache)
	}
	if e.Xmodule != "" {
		fmt.Fprintf(&b, " xmodule=%s", e.Xmodule)
	}
	if e.Module != "" {
		fmt.Fprintf(&b, " module=%s", e.Module)
	}
	if e.Mode != "" {
		fmt.Fprintf(&b, " mode=%s", e.Mode)
	}
	if e.Modules > 0 {
		fmt.Fprintf(&b, " modules=%d hits=%d misses=%d", e.Modules, e.Hits, e.Misses)
	}
	if e.Backend != "" {
		fmt.Fprintf(&b, " backend=%s", e.Backend)
	}
	if e.Attempts > 0 {
		fmt.Fprintf(&b, " attempts=%d", e.Attempts)
	}
	if len(e.Phases) > 0 {
		b.WriteString(" phases=")
		b.WriteString(formatPhases(e.Phases))
	}
	b.WriteByte('\n')
	io.WriteString(l.w, b.String())
}

// formatPhases renders phase timings as "parse:1.2ms,solve:3ms" — the
// same compact form the X-Lna-Phases response header uses.
func formatPhases(phases []faults.PhaseTiming) string {
	var b strings.Builder
	for i, pt := range phases {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%v", pt.Phase, pt.Elapsed.Round(time.Microsecond))
	}
	return b.String()
}

// StatusWriter captures the status code a handler wrote, for the
// access log and the request span. WriteHeader-less handlers imply
// 200.
type StatusWriter struct {
	http.ResponseWriter
	status int
}

func (w *StatusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *StatusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Status returns the captured status (200 when nothing was written).
func (w *StatusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}
