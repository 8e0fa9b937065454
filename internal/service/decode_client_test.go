package service_test

import (
	"context"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"localalias/internal/client"
	"localalias/internal/service"
)

// roundTripFunc answers a client's requests in process.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestClientBodiesTakeOnePass: every body internal/client sends for the
// decoder's seed requests, one by one and as one batch, decodes on the
// one-pass path into exactly the request that was sent. Without this
// the decoder's differential fuzz target could hold while every real
// body fell back to encoding/json.
func TestClientBodiesTakeOnePass(t *testing.T) {
	type sent struct {
		path string
		body []byte
	}
	var bodies []sent
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, sent{r.URL.Path, body})
		return &http.Response{
			StatusCode: http.StatusOK,
			Header:     http.Header{"Content-Type": {"application/json"}},
			Body:       io.NopCloser(strings.NewReader("{}")),
			Request:    r,
		}, nil
	})}
	c := client.New("http://client.test", client.Options{HTTPClient: hc, Retry: client.RetryPolicy{MaxAttempts: 1}})
	ctx := context.Background()
	reqs, batch := service.DecodeSeeds()
	for i := range reqs {
		if _, _, err := c.AnalyzeRaw(ctx, &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Batch(ctx, batch.Requests); err != nil {
		t.Fatal(err)
	}
	if len(bodies) != len(reqs)+1 {
		t.Fatalf("client sent %d bodies, want %d", len(bodies), len(reqs)+1)
	}
	for i, s := range bodies[:len(reqs)] {
		var got service.AnalyzeRequest
		if s.path != "/v1/analyze" || !service.DecodesInOnePass(s.body, &got) {
			t.Fatalf("%s %s (%s): body declined by the one-pass decoder", s.path, reqs[i].Module, reqs[i].Options.Mode)
		}
		if !reflect.DeepEqual(got, reqs[i]) {
			t.Fatalf("%s (%s): decoded %+v, sent %+v", reqs[i].Module, reqs[i].Options.Mode, got, reqs[i])
		}
	}
	var got service.BatchRequest
	if s := bodies[len(reqs)]; s.path != "/v1/batch" || !service.DecodesInOnePass(s.body, &got) {
		t.Fatalf("%s: batch body declined by the one-pass decoder", s.path)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("batch of %d decoded as %d entries, or differently", len(batch.Requests), len(got.Requests))
	}
}
