package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"

	"localalias/internal/obs"
)

// The HTTP front shared by both tiers. A daemon and a gateway read
// bodies, check batch envelopes, write batch answers, serve
// /v1/metrics and drain through these functions, so a client cannot
// tell the tiers apart by how they parse or answer a request.

// maxRequestBytes bounds one request body (a batch of large modules
// fits comfortably; a runaway upload does not).
const maxRequestBytes = 64 << 20

// ReadRequest reads one bounded POST body and decodes it into dst:
// in one pass when dst is an *AnalyzeRequest or *BatchRequest and the
// body has the shape encoding/json writes (decodeOnePass), otherwise
// with json.Unmarshal, whose errors are the wire's. The body must be
// exactly one JSON value; whitespace around it is fine, anything else
// after it is a 400. It returns the raw bytes, which a gateway
// forwards verbatim. On false the canonical error has been written.
func ReadRequest(w http.ResponseWriter, r *http.Request, dst any) ([]byte, bool) {
	if r.Method != http.MethodPost {
		WriteWireError(w, CodeMethodNotAllowed, "use POST")
		return nil, false
	}
	body, err := readBody(w, r)
	if err == nil && !decodeOnePass(body, dst) {
		err = json.Unmarshal(body, dst)
	}
	if err != nil {
		WriteWireError(w, CodeBadRequest, "bad request body: %v", err)
		return nil, false
	}
	return body, true
}

// readBody reads r's body, bounded by maxRequestBytes.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return ReadBody(http.MaxBytesReader(w, r.Body, maxRequestBytes), r.ContentLength)
}

// ReadBody reads a request or response body whose declared length is
// n (negative when unknown). A declared length of at most
// maxRequestBytes is read into one buffer of that size, since HTTP
// delivers exactly that many bytes or an error; any other body is
// read by io.ReadAll. Both tiers read request bodies, and the client
// reads response bodies, through it.
func ReadBody(body io.Reader, n int64) ([]byte, error) {
	if n > 0 && n <= maxRequestBytes {
		buf := make([]byte, n)
		if _, err := io.ReadFull(body, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	return io.ReadAll(body)
}

// ReadBatch reads a /v1/batch body and checks its envelope: one to
// MaxBatch entries. On false the canonical error has been written.
func ReadBatch(w http.ResponseWriter, r *http.Request) (*BatchRequest, bool) {
	var batch BatchRequest
	if _, ok := ReadRequest(w, r, &batch); !ok {
		return nil, false
	}
	switch n := len(batch.Requests); {
	case n == 0:
		WriteWireError(w, CodeBadRequest, "empty batch")
	case n > MaxBatch:
		WriteWireError(w, CodeBadRequest, "batch of %d exceeds the %d-module limit", n, MaxBatch)
	default:
		return &batch, true
	}
	return nil, false
}

// Admit validates each entry. It returns the batch's answer, sized to
// the batch, with every inadmissible entry already carrying its
// per-entry error and counted in Summary.Rejected, plus the indices of
// the entries left to analyze. A module with an unknown mode or no
// source never fails its healthy neighbours: clients tell "rejected"
// from "analyzed, result empty" by the Error field.
func (b *BatchRequest) Admit() (*BatchResponse, []int) {
	out := &BatchResponse{Results: make([]BatchEntry, len(b.Requests))}
	out.Summary.Modules = len(b.Requests)
	admitted := make([]int, 0, len(b.Requests))
	for i := range b.Requests {
		if werr := ValidateRequest(&b.Requests[i]); werr != nil {
			out.Results[i].Error = werr
			out.Summary.Rejected++
			continue
		}
		admitted = append(admitted, i)
	}
	return out, admitted
}

// WriteBatch writes a batch answer. The X-Lna-Cache header lists each
// entry's disposition (hit|miss|error), index-aligned with the
// submitted requests, so clients can spot cold entries without parsing
// the body (see the header table in DESIGN.md). The body is the
// answer indented by two spaces with a trailing newline, the bytes a
// json.Encoder with that indent writes, and its length is declared so
// that readers take ReadBody's one-buffer path.
func WriteBatch(w http.ResponseWriter, out *BatchResponse) {
	dispositions := make([]string, len(out.Results))
	for i, res := range out.Results {
		switch {
		case res.Error != nil:
			dispositions[i] = "error"
		case res.Cached:
			dispositions[i] = "hit"
		default:
			dispositions[i] = "miss"
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		WriteWireError(w, CodeInternal, "encoding the batch answer: %v", err)
		return
	}
	data = append(data, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Lna-Cache", strings.Join(dispositions, ","))
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// HandleMetrics serves the process-wide metrics registry: JSON by
// default, Prometheus text exposition when the client asks for it
// with ?format=prometheus or an Accept: text/plain header. An embedded
// gateway and daemon share one registry; a standalone gateway exposes
// only its own instruments.
func HandleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := obs.Default()
	format := r.URL.Query().Get("format")
	if format == "prometheus" ||
		(format == "" && strings.Contains(r.Header.Get("Accept"), "text/plain")) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
		return
	}
	if format != "" && format != "json" {
		WriteWireError(w, CodeBadRequest, "unknown format %q (want json|prometheus)", format)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = reg.WriteJSON(w)
}

// ListenAndServe binds addr (port 0 picks a free port), reports the
// bound address through ready (when non-nil), and serves h until ctx
// is cancelled. Cancellation runs the tier's drain step (when
// non-nil), then shuts down gracefully: in-flight requests get up to
// DefaultDrainTimeout to finish. The returned error is nil on a clean
// drain.
func ListenAndServe(ctx context.Context, addr string, h http.Handler, ready func(boundAddr string), drain func()) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		if drain != nil {
			drain()
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), DefaultDrainTimeout)
		defer cancel()
		drained <- hs.Shutdown(shutdownCtx)
	}()
	if ready != nil {
		ready(ln.Addr().String())
	}
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if ctx.Err() != nil {
		return <-drained
	}
	return nil
}
