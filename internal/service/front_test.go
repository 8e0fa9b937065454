package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"testing"

	"localalias/internal/drivergen"
)

// TestWriteBatchMatchesMarshalIndent: the batch writer, which splices
// canonical bodies in without encoding/json, writes exactly the bytes
// json.MarshalIndent writes, for answers of 1 to 6 entries mixing
// hits, misses, rejected entries, and bodies that are not canonical.
func TestWriteBatchMatchesMarshalIndent(t *testing.T) {
	var bodies [][]byte
	for i, spec := range drivergen.Corpus()[:3] {
		data, err := Analyze(context.Background(), &AnalyzeRequest{
			Module: spec.Name + ".mc", Source: spec.Source(),
			Options: AnalyzeOptions{Mode: []string{ModeQual, ModeInfer, ModeCheck}[i]},
		}).MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, data)
	}
	// A canonical body whose strings carry what encoding/json escapes,
	// and one that does not parse (its findings are diagnostics).
	for _, req := range []*AnalyzeRequest{
		{Module: "a<b>&\"c \\.mc", Source: "fun f(): int { return 0; }\n"},
		{Module: "broken.mc", Source: "fun f( {"},
	} {
		data, err := Analyze(context.Background(), req).MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, data)
	}

	entries := []BatchEntry{
		{Cached: false, CacheKey: "k0", TraceID: "00000000000000a1", Response: bodies[0], canonical: true},
		{Error: &WireError{Code: CodeBadRequest, Message: `unknown mode "x<y>" & more`}},
		{Cached: true, CacheKey: "k2", TraceID: "00000000000000a3", Response: bodies[1], canonical: true},
		// A gateway's merged entry: the body as a daemon's batch answer
		// carried it, indented at depth 3, with no trailing newline.
		{Cached: true, CacheKey: "k3", TraceID: "t\"4", Response: depth3(t, bodies[2])},
		{Cached: false, CacheKey: "k<4>", TraceID: "t&5", Response: bodies[3], canonical: true},
		// Bodies no daemon wrote: compact, with unescaped HTML
		// characters and odd spacing.
		{Cached: true, CacheKey: "k5", TraceID: "t6", Response: json.RawMessage(`{"a":"<b>&","c":[ 1, {} ,[]], "d":" "}`)},
		{Cached: false, CacheKey: "k6", TraceID: "t7", Response: bodies[4], canonical: true},
		{CacheKey: "k7", TraceID: "t8", Error: &WireError{Code: CodeInternal, Message: "line\nbreak\t\x01é"}},
	}
	for n := 1; n <= len(entries); n++ {
		for start := 0; start+n <= len(entries); start++ {
			out := &BatchResponse{Results: entries[start : start+n]}
			out.Summary = BatchSummary{Modules: n, CacheHits: start, CacheMisses: n, Failures: 1, Findings: 12345, Rejected: start % 2}
			want, err := json.MarshalIndent(out, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			rec := httptest.NewRecorder()
			WriteBatch(rec, out)
			got := rec.Body.Bytes()
			if !bytes.Equal(got, want) {
				t.Fatalf("entries [%d:%d]: WriteBatch differs from json.MarshalIndent\n--- got\n%s\n--- want\n%s",
					start, start+n, got, want)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
				t.Fatalf("entries [%d:%d]: Content-Length %s for %d bytes", start, start+n, cl, len(want))
			}
		}
	}
}

// depth3 re-indents a canonical body as it sits in a batch answer.
func depth3(t *testing.T, canonical []byte) json.RawMessage {
	t.Helper()
	var b bytes.Buffer
	if err := json.Indent(&b, bytes.TrimSuffix(canonical, []byte("\n")), entryIndent, "  "); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
