// Distributed-tracing tests: a request through the gateway must leave
// one coherent trace whose gateway-side attempt spans parent the
// replica-side phase spans, across real process boundaries (httptest
// servers speaking the actual wire contract, including the propagation
// header).
package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"localalias/internal/client"
	"localalias/internal/gateway"
	"localalias/internal/obs"
	"localalias/internal/service"
)

// fragmentsFor collects the trace's fragments from the gateway and
// every replica that holds one.
func fragmentsFor(t *testing.T, g *gateway.Gateway, reps []*replica, id string) (*obs.TraceExport, []*obs.TraceExport) {
	t.Helper()
	gt := g.Traces().Get(id)
	if gt == nil {
		t.Fatalf("gateway ring has no trace %s", id)
	}
	var repFrags []*obs.TraceExport
	for _, rep := range reps {
		if rt := rep.srv.Traces().Get(id); rt != nil {
			repFrags = append(repFrags, rt.Export("replica"))
		}
	}
	return gt.Export("gateway"), repFrags
}

// spanByName returns the first span with the given name, or nil.
func spanByName(ex *obs.TraceExport, name string) *obs.SpanExport {
	for i := range ex.Spans {
		if ex.Spans[i].Name == name {
			return &ex.Spans[i]
		}
	}
	return nil
}

// spanArg returns the value recorded under key in a span's args.
func spanArg(s *obs.SpanExport, key string) string {
	for i := 0; i+1 < len(s.Args); i += 2 {
		if s.Args[i] == key {
			return s.Args[i+1]
		}
	}
	return ""
}

// TestGatewayDistributedTraceAssembly: one request through a
// two-replica fleet yields a gateway fragment and a replica fragment
// under the same trace ID, with the replica's root span parented under
// the gateway's attempt span — and the merged Chrome trace carries
// both processes with the cross-process link intact. The relay span
// names the backend's cache disposition.
func TestGatewayDistributedTraceAssembly(t *testing.T) {
	g, c, reps := newCluster(t, 2, gateway.Options{})
	req := service.AnalyzeRequest{
		Module: "traced.mc", Source: checkSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck},
	}
	_, meta, err := c.AnalyzeRaw(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if meta.TraceID == "" {
		t.Fatal("response carries no X-Lna-Trace ID")
	}

	gwFrag, repFrags := fragmentsFor(t, g, reps, meta.TraceID)
	if len(repFrags) != 1 {
		t.Fatalf("want the trace on exactly 1 replica, found it on %d", len(repFrags))
	}
	repFrag := repFrags[0]
	if gwFrag.TraceID != meta.TraceID || repFrag.TraceID != meta.TraceID {
		t.Fatalf("fragments disagree on trace ID: gateway %s, replica %s, header %s",
			gwFrag.TraceID, repFrag.TraceID, meta.TraceID)
	}

	relay := spanByName(gwFrag, "relay")
	if relay == nil {
		t.Fatalf("gateway fragment has no relay span: %+v", gwFrag.Spans)
	}
	attempt := spanByName(gwFrag, "attempt")
	if attempt == nil {
		t.Fatalf("gateway fragment has no attempt span: %+v", gwFrag.Spans)
	}
	if attempt.Parent != relay.ID {
		t.Fatalf("attempt span parents under %q, want the relay span %q", attempt.Parent, relay.ID)
	}
	if spanByName(gwFrag, "admission") == nil || spanByName(gwFrag, "route") == nil {
		t.Fatalf("gateway fragment missing admission/route spans: %+v", gwFrag.Spans)
	}
	// The relay span carries the backend's cache disposition: a cold
	// run here, and a hit for the same body sent again.
	if got := spanArg(relay, "cache"); got != "miss" {
		t.Errorf("first relay span cache = %q, want miss (args %v)", got, relay.Args)
	}
	_, meta2, err := c.AnalyzeRaw(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	gwFrag2, _ := fragmentsFor(t, g, reps, meta2.TraceID)
	if relay2 := spanByName(gwFrag2, "relay"); relay2 == nil || spanArg(relay2, "cache") != "hit" {
		t.Errorf("resubmission's relay span = %+v, want cache hit", relay2)
	}

	// The cross-process link: the replica's request-level span must
	// name the gateway's attempt span as its parent — that parent ID
	// exists nowhere in the replica's process except via the header.
	analyze := spanByName(repFrag, "analyze")
	if analyze == nil {
		t.Fatalf("replica fragment has no analyze span: %+v", repFrag.Spans)
	}
	if analyze.Parent != attempt.ID {
		t.Fatalf("replica analyze span parents under %q, want the gateway attempt span %q",
			analyze.Parent, attempt.ID)
	}

	// Merge and check the Chrome view: two named processes, and the
	// replica's analyze event still points at the gateway's attempt.
	var buf bytes.Buffer
	if err := obs.WriteChromeExports(&buf, gwFrag, repFrag); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	pids := map[int]bool{}
	procNames := map[string]bool{}
	var analyzeParent string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procNames[ev.Args["name"].(string)] = true
		}
		if ev.Ph == "X" {
			pids[ev.Pid] = true
			if ev.Name == "analyze" {
				analyzeParent, _ = ev.Args["parent_id"].(string)
			}
		}
	}
	if len(pids) != 2 {
		t.Fatalf("merged trace spans %d pids, want 2", len(pids))
	}
	if !procNames["gateway"] || !procNames["replica"] {
		t.Fatalf("merged trace process names = %v, want gateway and replica", procNames)
	}
	if analyzeParent != attempt.ID {
		t.Fatalf("merged analyze event parent_id = %q, want gateway attempt %q", analyzeParent, attempt.ID)
	}
}

// TestGatewayFleetEndpoint: /v1/fleet aggregates the gateway's own
// stats with every replica's /v1/stats.
func TestGatewayFleetEndpoint(t *testing.T) {
	_, c, reps := newCluster(t, 2, gateway.Options{})
	req := service.AnalyzeRequest{
		Module: "fleet.mc", Source: checkSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck},
	}
	if _, _, err := c.AnalyzeRaw(context.Background(), &req); err != nil {
		t.Fatal(err)
	}
	res, err := c.GetRaw(context.Background(), "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("/v1/fleet answered %d: %s", res.Status, res.Body)
	}
	var fs gateway.FleetStatus
	if err := json.Unmarshal(res.Body, &fs); err != nil {
		t.Fatal(err)
	}
	if fs.Gateway.Requests != 1 {
		t.Fatalf("fleet gateway requests = %d, want 1", fs.Gateway.Requests)
	}
	if len(fs.Replicas) != len(reps) {
		t.Fatalf("fleet lists %d replicas, want %d", len(fs.Replicas), len(reps))
	}
	served := uint64(0)
	for _, rep := range fs.Replicas {
		if !rep.Healthy {
			t.Fatalf("replica %s reported unhealthy: %s", rep.URL, rep.LastError)
		}
		if rep.Stats == nil {
			t.Fatalf("replica %s carries no stats (error %q)", rep.URL, rep.StatsError)
		}
		served += rep.Stats.Requests
	}
	if served != 1 {
		t.Fatalf("replicas served %d requests in total, want 1", served)
	}
}

// TestGatewayTraceEndpoint: the gateway serves its fragment over
// /v1/trace/{id}, 404s unknown IDs with the not_found code, and the
// replica serves its half under the same ID.
func TestGatewayTraceEndpoint(t *testing.T) {
	_, c, reps := newCluster(t, 2, gateway.Options{})
	req := service.AnalyzeRequest{
		Module: "traced2.mc", Source: checkSrc,
		Options: service.AnalyzeOptions{Mode: service.ModeCheck},
	}
	_, meta, err := c.AnalyzeRaw(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	frag, err := c.Trace(context.Background(), meta.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if frag.Process != "gateway" || frag.TraceID != meta.TraceID {
		t.Fatalf("gateway fragment = process %q trace %q, want gateway/%s",
			frag.Process, frag.TraceID, meta.TraceID)
	}
	found := false
	for _, rep := range reps {
		rc := client.New(rep.ts.URL, client.Options{})
		rf, err := rc.Trace(context.Background(), meta.TraceID)
		if err != nil {
			if isNotFoundErr(err) {
				continue
			}
			t.Fatal(err)
		}
		if rf.Process != "replica" {
			t.Fatalf("replica fragment process = %q, want replica", rf.Process)
		}
		found = true
	}
	if !found {
		t.Fatal("no replica serves the trace fragment")
	}
	if _, err := c.Trace(context.Background(), "0123456789abcdef"); !isNotFoundErr(err) {
		t.Fatalf("unknown trace ID should yield not_found, got %v", err)
	}
}

func isNotFoundErr(err error) bool {
	apiErr, ok := err.(*client.APIError)
	return ok && apiErr.Err != nil && apiErr.Err.Code == service.CodeNotFound
}
