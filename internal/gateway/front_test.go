// Agreement tests between the tiers: a batch entry is served wherever
// its single request would be, and a daemon and a gateway answer the
// same body the same way.
package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"localalias/internal/client"
	"localalias/internal/gateway"
	"localalias/internal/obs"
	"localalias/internal/service"
)

// TestGatewayBatchWalksLikeSingles: one backend is healthy but answers
// every analysis with 504, so it keeps its ring position and the
// requests it owns must walk on to the real daemon beside it. A batch
// entry takes the same walk as its single request: all 16 corpus
// modules are served, as one batch and as 16 singles, with bytes equal
// to a direct run.
func TestGatewayBatchWalksLikeSingles(t *testing.T) {
	var refused atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/health" {
			_ = json.NewEncoder(w).Encode(service.HealthStatus{Status: "ok", APIVersion: service.APIVersion})
			return
		}
		refused.Add(1)
		http.Error(w, "upstream timed out", http.StatusGatewayTimeout)
	}))
	t.Cleanup(fake.Close)
	real := httptest.NewServer(service.NewServer(service.ServerOptions{Workers: 2}).Handler())
	t.Cleanup(real.Close)
	g, err := gateway.New(gateway.Options{Backends: []string{fake.URL, real.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(g.Handler())
	t.Cleanup(gts.Close)
	c := client.New(gts.URL, client.Options{Retry: client.RetryPolicy{MaxAttempts: 1}})

	// The references: each module's canonical bytes from a bare engine
	// run, and a batch answered by a daemon of its own (a batch entry
	// carries its response re-indented inside the envelope).
	reqs := corpusRequests(16)
	direct := make([][]byte, len(reqs))
	for i := range reqs {
		if direct[i], err = service.Analyze(context.Background(), &reqs[i]).MarshalCanonical(); err != nil {
			t.Fatal(err)
		}
	}
	dts := httptest.NewServer(service.NewServer(service.ServerOptions{Workers: 2}).Handler())
	t.Cleanup(dts.Close)
	directBatch, _, err := client.New(dts.URL, client.Options{}).Batch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	out, _, err := c.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if out.Summary.Rejected != 0 {
		t.Errorf("batch summary = %+v; want no rejected entries", out.Summary)
	}
	for i, e := range out.Results {
		if e.Error != nil {
			t.Errorf("batch entry %d (%s): %v", i, reqs[i].Module, e.Error)
		} else if !bytes.Equal(e.Response, directBatch.Results[i].Response) {
			t.Errorf("batch entry %d (%s): bytes differ from a direct daemon's batch", i, reqs[i].Module)
		}
	}
	batchRefusals := refused.Load()
	if batchRefusals == 0 {
		t.Fatal("the refusing backend owned no batch entry; the test proves nothing")
	}

	for i := range reqs {
		body, meta, err := c.AnalyzeRaw(context.Background(), &reqs[i])
		if err != nil {
			t.Errorf("single %d (%s): %v", i, reqs[i].Module, err)
			continue
		}
		if !bytes.Equal(body, direct[i]) {
			t.Errorf("single %d (%s): bytes differ from a direct run", i, reqs[i].Module)
		}
		if meta.Backend != real.URL {
			t.Errorf("single %d (%s): served by %s; want %s", i, reqs[i].Module, meta.Backend, real.URL)
		}
	}
	if refused.Load() == batchRefusals {
		t.Error("the refusing backend owned no single request")
	}
	for _, st := range g.BackendStates() {
		if !st.Healthy {
			t.Errorf("backend %s left the ring; a 504 is not a health verdict", st.URL)
		}
	}
}

// fronts is a daemon and a gateway over one replica of its own,
// called in-process so each body reaches both fronts unchanged.
type fronts struct {
	daemon, gateway http.Handler
}

func newFronts(tb testing.TB) fronts {
	tb.Helper()
	opts := service.ServerOptions{Workers: 2, RequestTimeout: 10 * time.Second, TraceEntries: -1}
	rep := httptest.NewServer(service.NewServer(opts).Handler())
	tb.Cleanup(rep.Close)
	g, err := gateway.New(gateway.Options{Backends: []string{rep.URL}, HealthInterval: time.Hour, TraceEntries: -1})
	if err != nil {
		tb.Fatal(err)
	}
	return fronts{daemon: service.NewServer(opts).Handler(), gateway: g.Handler()}
}

// answer is one front's reply to a body.
type answer struct {
	status int
	code   string // wire error code of a non-2xx reply
	body   []byte
}

func serve(h http.Handler, method, path string, body []byte) answer {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	a := answer{status: rec.Code, body: rec.Body.Bytes()}
	if a.status >= 300 {
		a.code = service.DecodeWireError(a.status, a.body).Code
	}
	return a
}

// bodyCase is one way of sending a body, shared by the agreement
// table and the fuzz seeds.
type bodyCase struct {
	name   string
	get    bool // send with GET instead of POST
	body   string
	status int
}

// bodyCases wraps one valid JSON value in each case of the agreement
// table.
func bodyCases(valid string) []bodyCase {
	return []bodyCase{
		{"valid", false, valid, http.StatusOK},
		{"junk after the value", false, valid + "junk", http.StatusBadRequest},
		{"second JSON value", false, valid + valid, http.StatusBadRequest},
		{"trailing whitespace", false, valid + " \n\t\r\n", http.StatusOK},
		{"malformed JSON", false, valid[:len(valid)/2], http.StatusBadRequest},
		{"wrong method", true, valid, http.StatusMethodNotAllowed},
	}
}

func validBodies(tb testing.TB) (analyze, batch string) {
	req := service.AnalyzeRequest{Module: "m.mc", Source: checkSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck}}
	a, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := json.Marshal(service.BatchRequest{Requests: []service.AnalyzeRequest{req}})
	if err != nil {
		tb.Fatal(err)
	}
	return string(a), string(b)
}

// TestTiersAgreeOnBody: identical bytes sent to a daemon and to a
// one-replica gateway get the same status, wire code and error body,
// on /v1/analyze and on /v1/batch. A body is exactly one JSON value at
// either tier; whitespace after it is fine.
func TestTiersAgreeOnBody(t *testing.T) {
	f := newFronts(t)
	analyze, batch := validBodies(t)
	for _, ep := range []struct{ path, valid string }{{"/v1/analyze", analyze}, {"/v1/batch", batch}} {
		path := ep.path
		for _, tc := range bodyCases(ep.valid) {
			t.Run(path+"/"+tc.name, func(t *testing.T) {
				method := http.MethodPost
				if tc.get {
					method = http.MethodGet
				}
				d := serve(f.daemon, method, path, []byte(tc.body))
				g := serve(f.gateway, method, path, []byte(tc.body))
				if d.status != tc.status || g.status != tc.status {
					t.Fatalf("status: daemon %d, gateway %d; want %d\ndaemon: %s\ngateway: %s",
						d.status, g.status, tc.status, d.body, g.body)
				}
				if d.code != g.code {
					t.Errorf("wire code: daemon %q, gateway %q", d.code, g.code)
				}
				if d.status != http.StatusOK && !bytes.Equal(d.body, g.body) {
					t.Errorf("error bodies differ\ndaemon:  %s\ngateway: %s", d.body, g.body)
				}
				if path == "/v1/analyze" && !bytes.Equal(d.body, g.body) {
					t.Errorf("analyze bodies differ\ndaemon:  %s\ngateway: %s", d.body, g.body)
				}
			})
		}
	}
}

// FuzzGatewayMatchesDaemon sends each input body to a daemon and to a
// one-replica gateway. Both must answer with the same status and wire
// code, and /v1/analyze bodies must be byte-identical, unless the
// analysis itself failed (a timeout depends on the host, a contained
// panic's stack on the call path): then only the failure kind must
// agree.
func FuzzGatewayMatchesDaemon(f *testing.F) {
	analyze, batch := validBodies(f)
	for _, tc := range bodyCases(analyze) {
		f.Add(false, tc.get, []byte(tc.body))
	}
	for _, tc := range bodyCases(batch) {
		f.Add(true, tc.get, []byte(tc.body))
	}
	reqs := corpusRequests(3)
	for i := range reqs {
		body, err := json.Marshal(reqs[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(false, false, body)
	}
	body, err := json.Marshal(service.BatchRequest{Requests: reqs})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(true, false, body)

	fr := newFronts(f)
	f.Fuzz(func(t *testing.T, isBatch, get bool, body []byte) {
		if len(body) > 1<<16 {
			t.Skip()
		}
		method, path := http.MethodPost, "/v1/analyze"
		if get {
			method = http.MethodGet
		}
		if isBatch {
			path = "/v1/batch"
		}
		d := serve(fr.daemon, method, path, body)
		g := serve(fr.gateway, method, path, body)
		if d.status != g.status || d.code != g.code {
			t.Fatalf("%s %s: daemon %d %q, gateway %d %q\ndaemon:  %s\ngateway: %s",
				method, path, d.status, d.code, g.status, g.code, d.body, g.body)
		}
		if isBatch || bytes.Equal(d.body, g.body) {
			return
		}
		dk, gk := failureKind(d.body), failureKind(g.body)
		if dk == "" || dk != gk {
			t.Fatalf("analyze bodies differ\ndaemon:  %s\ngateway: %s", d.body, g.body)
		}
	})
}

// failureKind is the kind of an analyze response's failure record, or
// "" when the body is not a failed response.
func failureKind(body []byte) obs.Kind {
	var resp service.AnalyzeResponse
	if json.Unmarshal(body, &resp) != nil || resp.Failure == nil {
		return ""
	}
	return resp.Failure.Kind
}
