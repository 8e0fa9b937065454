// Package client is the one v1 wire-contract client of the analysis
// service: typed AnalyzeRequest/BatchResponse round trips, decoding of
// the X-Lna-* response headers, canonical error-body handling, and a
// shared retry policy with exponential backoff. The gateway's backend
// forwarding, the CLI's remote mode (`lna check -remote URL`), and the
// open-loop load generators all speak HTTP through this package, so
// the wire shape lives in exactly one place (package service defines
// the types; this package defines how they travel).
//
// Retrying POST /v1/analyze and /v1/batch is safe by construction:
// analysis is a pure function of the request (responses are canonical
// bytes keyed by content hash), so a retried request can only repeat
// work, never duplicate an effect.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"localalias/internal/obs"
	"localalias/internal/service"
)

// RetryPolicy bounds the client's attempts against one base URL.
// Retried statuses are 429 (queue full — the daemon's backpressure
// asks for exactly this), 502, 503, and 504; transport errors always
// retry. A 4xx other than 429 never retries: the request itself is
// wrong, and resending it cannot help.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (0 = DefaultAttempts;
	// 1 disables retrying).
	MaxAttempts int
	// Backoff is the first retry's delay, doubling per attempt
	// (0 = DefaultBackoff). A Retry-After header overrides the
	// computed delay when larger, capped at MaxBackoff.
	Backoff time.Duration
	// MaxBackoff caps the delay between attempts (0 = DefaultMaxBackoff).
	MaxBackoff time.Duration
}

// Retry defaults.
const (
	DefaultAttempts   = 3
	DefaultBackoff    = 50 * time.Millisecond
	DefaultMaxBackoff = 2 * time.Second
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultAttempts
	}
	if p.Backoff <= 0 {
		p.Backoff = DefaultBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultMaxBackoff
	}
	return p
}

// Options configures a Client. The zero value picks defaults.
type Options struct {
	// HTTPClient is the underlying transport (nil = a dedicated
	// http.Client with no overall timeout; use request contexts for
	// deadlines).
	HTTPClient *http.Client
	// Retry is the retry policy for the typed calls. RoundTrip is
	// always a single attempt.
	Retry RetryPolicy
}

// Client speaks the v1 contract against one base URL.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
}

// New builds a client for baseURL (e.g. "http://127.0.0.1:8347").
func New(baseURL string, opts Options) *Client {
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{
		base:  strings.TrimRight(baseURL, "/"),
		hc:    hc,
		retry: opts.Retry.withDefaults(),
	}
}

// BaseURL returns the target this client speaks to.
func (c *Client) BaseURL() string { return c.base }

// Meta is the per-response metadata the daemon and gateway put in
// X-Lna-* headers — everything that must never ride in the canonical
// body (see DESIGN.md §8).
type Meta struct {
	// Cache is the result-cache disposition: "hit", "miss", or — on a
	// batch — the index-aligned comma list. "" when absent.
	Cache string
	// CacheKey is the content-hash key (single-module responses only).
	CacheKey string
	// TraceID joins the response to the server's access log and spans.
	TraceID string
	// Phases is the per-phase timing list ("parse=0.1ms,...").
	Phases string
	// Xmodule is the whole-program pass summary of a multi_module
	// request ("modules=N;analyzed=A;failed=F"), "" otherwise.
	Xmodule string
	// Backend is the replica that served a gateway-routed request.
	Backend string
	// Attempts is how many tries the gateway (or this client) spent.
	Attempts int
}

// decodeMeta reads the X-Lna-* headers into a Meta.
func decodeMeta(h http.Header) Meta {
	m := Meta{
		Cache:    h.Get("X-Lna-Cache"),
		CacheKey: h.Get("X-Lna-Cache-Key"),
		TraceID:  h.Get("X-Lna-Trace"),
		Phases:   h.Get("X-Lna-Phases"),
		Xmodule:  h.Get("X-Lna-Xmodule"),
		Backend:  h.Get("X-Lna-Backend"),
	}
	if v := h.Get("X-Lna-Attempts"); v != "" {
		m.Attempts, _ = strconv.Atoi(v)
	}
	return m
}

// APIError is a non-2xx answer decoded from the canonical error body:
// the HTTP status plus the structured code/message. It unwraps to the
// *service.WireError, so errors.As works on either layer.
type APIError struct {
	Status int
	Err    *service.WireError
}

func (e *APIError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.Status, e.Err.Error())
}

func (e *APIError) Unwrap() error { return e.Err }

// ExitCode maps the error through the shared exit-code table.
func (e *APIError) ExitCode() int { return e.Err.ExitCode() }

// Result is one raw HTTP exchange: status, headers, body bytes, and
// the decoded Meta. RoundTrip returns it even for non-2xx statuses —
// the gateway relays those verbatim.
type Result struct {
	Status int
	Header http.Header
	Body   []byte
	Meta   Meta
}

// OK reports whether the exchange carried a 2xx status.
func (r *Result) OK() bool { return r.Status >= 200 && r.Status < 300 }

// WireError decodes the canonical error body of a non-2xx Result
// (nil when the Result is OK).
func (r *Result) WireError() *service.WireError {
	if r.OK() {
		return nil
	}
	return service.DecodeWireError(r.Status, r.Body)
}

// RoundTrip POSTs body to path (e.g. "/v1/analyze") in a single
// attempt — no retries, no status interpretation. The error is
// transport-level only (connection refused, context cancelled); any
// HTTP status comes back as a Result. This is the primitive the
// gateway's ring-aware retry is built on.
//
// When ctx carries an active trace span (obs.ContextWithSpan), the
// request is stamped with the X-Lna-Trace-Context header, so the
// receiving server parents its spans under the caller's — this single
// line is the whole client side of distributed tracing.
func (c *Client) RoundTrip(ctx context.Context, path string, body []byte) (*Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sc, ok := obs.TraceContextFromContext(ctx); ok {
		req.Header.Set(obs.TraceContextHeader, sc.String())
	}
	return c.do(req)
}

// get performs one GET round trip (health, stats).
func (c *Client) get(ctx context.Context, path string) (*Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

// do sends req and reads the whole response. A body of declared
// length (both tiers set Content-Length on canonical bytes) is read
// into one buffer of that size.
func (c *Client) do(req *http.Request) (*Result, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := service.ReadBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("reading response body: %w", err)
	}
	return &Result{Status: resp.StatusCode, Header: resp.Header, Body: data, Meta: decodeMeta(resp.Header)}, nil
}

// retryable reports whether a status is worth another attempt.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoffFor computes the sleep before attempt n (0-based retry
// index), honouring a Retry-After header when it asks for longer.
func (p RetryPolicy) backoffFor(n int, retryAfter string) time.Duration {
	d := p.Backoff << n
	if secs, err := strconv.Atoi(retryAfter); err == nil {
		if ra := time.Duration(secs) * time.Second; ra > d {
			d = ra
		}
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// postRetry marshals payload and POSTs it to path under the retry
// policy. On a terminal non-2xx it returns the Result and an *APIError
// decoded from the canonical body; transport failures on the last
// attempt return the underlying error. attempts performed are recorded
// in the Result's Meta.
func (c *Client) postRetry(ctx context.Context, path string, payload any) (*Result, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("encoding request: %w", err)
	}
	var (
		res     *Result
		lastErr error
	)
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			retryAfter := ""
			if res != nil {
				retryAfter = res.Header.Get("Retry-After")
			}
			select {
			case <-time.After(c.retry.backoffFor(attempt-1, retryAfter)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		res, lastErr = c.RoundTrip(ctx, path, body)
		if lastErr != nil {
			res = nil
			continue
		}
		if res.Meta.Attempts == 0 {
			// No X-Lna-Attempts from the server (direct daemon): report
			// this client's own tries. A gateway's header is authoritative
			// — it counts the upstream placement attempts.
			res.Meta.Attempts = attempt + 1
		}
		if res.OK() || !retryable(res.Status) {
			break
		}
	}
	if res == nil {
		return nil, fmt.Errorf("POST %s%s failed after %d attempt(s): %w", c.base, path, c.retry.MaxAttempts, lastErr)
	}
	if !res.OK() {
		return res, &APIError{Status: res.Status, Err: res.WireError()}
	}
	return res, nil
}

// AnalyzeRaw submits one module and returns the canonical response
// bytes exactly as served (the same bytes `lna check -json` would
// print locally), plus the decoded Meta.
func (c *Client) AnalyzeRaw(ctx context.Context, req *service.AnalyzeRequest) ([]byte, Meta, error) {
	res, err := c.postRetry(ctx, "/v1/analyze", req)
	if err != nil {
		var meta Meta
		if res != nil {
			meta = res.Meta
		}
		return nil, meta, err
	}
	return res.Body, res.Meta, nil
}

// Analyze submits one module and decodes the typed response. A
// response carrying a Failure record is not an error: the analysis
// degraded in-band, and the caller decides via ExitCode.
func (c *Client) Analyze(ctx context.Context, req *service.AnalyzeRequest) (*service.AnalyzeResponse, Meta, error) {
	body, meta, err := c.AnalyzeRaw(ctx, req)
	if err != nil {
		return nil, meta, err
	}
	var resp service.AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, meta, fmt.Errorf("decoding AnalyzeResponse: %w", err)
	}
	return &resp, meta, nil
}

// Batch submits a multi-module batch and decodes the typed response;
// Results are index-aligned with the submitted requests.
func (c *Client) Batch(ctx context.Context, reqs []service.AnalyzeRequest) (*service.BatchResponse, Meta, error) {
	res, err := c.postRetry(ctx, "/v1/batch", service.BatchRequest{Requests: reqs})
	if err != nil {
		var meta Meta
		if res != nil {
			meta = res.Meta
		}
		return nil, meta, err
	}
	var out service.BatchResponse
	if err := json.Unmarshal(res.Body, &out); err != nil {
		return nil, res.Meta, fmt.Errorf("decoding BatchResponse: %w", err)
	}
	return &out, res.Meta, nil
}

// Health fetches /v1/health in a single attempt (health checks must
// observe failures, not paper over them with retries).
func (c *Client) Health(ctx context.Context) (*service.HealthStatus, error) {
	res, err := c.get(ctx, "/v1/health")
	if err != nil {
		return nil, err
	}
	if !res.OK() {
		return nil, &APIError{Status: res.Status, Err: res.WireError()}
	}
	var hs service.HealthStatus
	if err := json.Unmarshal(res.Body, &hs); err != nil {
		return nil, fmt.Errorf("decoding health: %w", err)
	}
	return &hs, nil
}

// GetRaw performs one GET round trip against an arbitrary v1 path
// (e.g. "/v1/fleet"), returning the raw Result even for non-2xx
// statuses. Callers that know the endpoint's JSON shape decode it
// themselves; this keeps gateway-only types out of the client.
func (c *Client) GetRaw(ctx context.Context, path string) (*Result, error) {
	return c.get(ctx, path)
}

// Trace fetches one process's fragment of a trace from
// /v1/trace/{id}. An unknown ID is an *APIError with a not_found
// code; callers assembling a fleet-wide trace treat that as "this
// process saw nothing", not as failure.
func (c *Client) Trace(ctx context.Context, id string) (*obs.TraceExport, error) {
	res, err := c.get(ctx, "/v1/trace/"+id)
	if err != nil {
		return nil, err
	}
	if !res.OK() {
		return nil, &APIError{Status: res.Status, Err: res.WireError()}
	}
	var ex obs.TraceExport
	if err := json.Unmarshal(res.Body, &ex); err != nil {
		return nil, fmt.Errorf("decoding trace export: %w", err)
	}
	return &ex, nil
}

// Stats fetches the /v1/stats snapshot.
func (c *Client) Stats(ctx context.Context) (*service.ServerStats, error) {
	res, err := c.get(ctx, "/v1/stats")
	if err != nil {
		return nil, err
	}
	if !res.OK() {
		return nil, &APIError{Status: res.Status, Err: res.WireError()}
	}
	var st service.ServerStats
	if err := json.Unmarshal(res.Body, &st); err != nil {
		return nil, fmt.Errorf("decoding stats: %w", err)
	}
	return &st, nil
}
