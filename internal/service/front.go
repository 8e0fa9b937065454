package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"

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
	data, err := marshalBatch(out)
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

// entryIndent is the indentation of a batch entry's fields: the answer
// object, its results array and the entry object are three levels of
// two spaces.
const entryIndent = "      "

// marshalBatch returns json.MarshalIndent(out, "", "  ") without
// running encoding/json over the entries' bodies where it can avoid
// it. A body the daemon wrote itself (BatchEntry.canonical) is
// already compact-equivalent, escaped and indented from depth 0, so it
// is spliced in with each line after the first shifted to depth 3.
// Any other body goes through encoding/json, which validates,
// compacts and re-indents it. The envelope is written field by field
// in BatchResponse's order; TestWriteBatchMatchesMarshalIndent holds
// it to encoding/json's bytes.
func marshalBatch(out *BatchResponse) ([]byte, error) {
	if len(out.Results) == 0 {
		return json.MarshalIndent(out, "", "  ")
	}
	size := 256
	for i := range out.Results {
		size += 256 + len(out.Results[i].Response)*5/4
	}
	b := make([]byte, 0, size)
	b = append(b, "{\n  \"results\": ["...)
	for i := range out.Results {
		e := &out.Results[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"cached\": "...)
		b = strconv.AppendBool(b, e.Cached)
		b = append(b, ",\n      \"cache_key\": "...)
		b = appendJSONString(b, e.CacheKey)
		b = append(b, ",\n      \"trace_id\": "...)
		b = appendJSONString(b, e.TraceID)
		if len(e.Response) > 0 {
			b = append(b, ",\n      \"response\": "...)
			if e.canonical {
				b = appendShifted(b, bytes.TrimSuffix(e.Response, []byte("\n")))
			} else {
				body, err := json.MarshalIndent(e.Response, entryIndent, "  ")
				if err != nil {
					return nil, err
				}
				b = append(b, body...)
			}
		}
		if e.Error != nil {
			b = append(b, ",\n      \"error\": {\n        \"code\": "...)
			b = appendJSONString(b, e.Error.Code)
			b = append(b, ",\n        \"message\": "...)
			b = appendJSONString(b, e.Error.Message)
			b = append(b, "\n      }"...)
		}
		b = append(b, "\n    }"...)
	}
	b = append(b, "\n  ],\n  \"summary\": {\n    \"modules\": "...)
	b = strconv.AppendInt(b, int64(out.Summary.Modules), 10)
	b = append(b, ",\n    \"cache_hits\": "...)
	b = strconv.AppendInt(b, int64(out.Summary.CacheHits), 10)
	b = append(b, ",\n    \"cache_misses\": "...)
	b = strconv.AppendInt(b, int64(out.Summary.CacheMisses), 10)
	b = append(b, ",\n    \"failures\": "...)
	b = strconv.AppendInt(b, int64(out.Summary.Failures), 10)
	b = append(b, ",\n    \"findings\": "...)
	b = strconv.AppendInt(b, int64(out.Summary.Findings), 10)
	b = append(b, ",\n    \"rejected\": "...)
	b = strconv.AppendInt(b, int64(out.Summary.Rejected), 10)
	return append(b, "\n  }\n}"...), nil
}

// appendShifted appends body with entryIndent after each newline.
func appendShifted(b, body []byte) []byte {
	for {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			return append(b, body...)
		}
		b = append(b, body[:i+1]...)
		b = append(b, entryIndent...)
		body = body[i+1:]
	}
}

// appendJSONString appends s quoted as encoding/json quotes it. Plain
// printable ASCII, which trace IDs and cache keys always are, is
// copied between quotes; anything encoding/json would escape (a quote,
// a backslash, a control byte, <, >, &, or a non-ASCII byte) sends the
// whole string through encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
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
