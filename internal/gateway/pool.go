package gateway

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"localalias/internal/client"
)

// Health-check settings.
const (
	// DefaultHealthInterval is the period between health sweeps.
	DefaultHealthInterval = 2 * time.Second
	// healthTimeout bounds one health probe: a backend that cannot
	// answer /v1/health in this long is not healthy, whatever it would
	// eventually have said.
	healthTimeout = 1 * time.Second
)

// Backend is one `lna serve` replica in the pool.
type Backend struct {
	// URL is the replica's base URL; it is also the backend's identity
	// on the hash ring.
	URL string
	// client forwards requests; RoundTrip only (the gateway owns retry
	// placement, so the client-level policy must never trigger).
	client *client.Client

	healthy atomic.Bool
	// lastErr is the most recent probe or forward failure, for
	// /v1/health introspection ("" when healthy).
	lastErr atomic.Value // string
	// attempts counts forward attempts at this backend, indexed by
	// outcome: the lna_gateway_attempts_total{backend,outcome} series.
	attempts [numOutcomes]atomic.Uint64
}

// Healthy reports whether the backend is currently in the ring.
func (b *Backend) Healthy() bool { return b.healthy.Load() }

// The outcomes of a forward attempt, indexing Backend.attempts.
const (
	outcomeOK        = iota // a relayable answer below 400
	outcomeError            // a relayable answer of 400 or more
	outcomeRetryable        // 429, 502, 503 or 504
	outcomeTransport        // no answer: the round trip failed
	outcomeCanceled         // no answer: the client departed
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "error", "retryable", "transport", "canceled"}

// BackendState is one backend's row in the gateway's health payload.
type BackendState struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	LastError string `json:"last_error,omitempty"`
	// Forwarded counts the attempts this backend answered over HTTP:
	// its ok, error and retryable attempts.
	Forwarded uint64 `json:"forwarded"`
}

// pool owns the backend set, the periodic health checks, and the
// consistent-hash ring over the currently-healthy members. The ring is
// immutable and swapped atomically, so the request path never takes
// the pool's lock.
type pool struct {
	backends []*Backend // fixed membership, stable order
	byURL    map[string]*Backend
	interval time.Duration

	ring atomic.Pointer[ring]

	mu      sync.Mutex // serializes ring rebuilds and sweeps
	stop    chan struct{}
	stopped sync.WaitGroup

	// onSweep, when non-nil (the gateway installs it), receives every
	// completed health sweep's probe outcomes — the hook behind the
	// health-sweep traces.
	onSweep func(start time.Time, dur time.Duration, probes []sweepProbe, changed bool)
}

// sweepProbe is one backend's probe outcome within a health sweep.
type sweepProbe struct {
	url     string
	healthy bool
	detail  string // probe error or reported status ("" when healthy)
	start   time.Time
	dur     time.Duration
}

func newPool(urls []string, interval time.Duration) *pool {
	p := &pool{
		byURL:    make(map[string]*Backend, len(urls)),
		interval: interval,
		stop:     make(chan struct{}),
	}
	for _, u := range urls {
		if _, dup := p.byURL[u]; dup {
			continue
		}
		b := &Backend{
			URL: u,
			client: client.New(u, client.Options{
				Retry: client.RetryPolicy{MaxAttempts: 1},
			}),
		}
		b.lastErr.Store("")
		// Backends start healthy: a gateway booting ahead of its
		// replicas would otherwise refuse everything until the first
		// sweep, and an eager failure mark corrects an optimistic start
		// within one forwarded request anyway.
		b.healthy.Store(true)
		p.backends = append(p.backends, b)
		p.byURL[u] = b
	}
	p.rebuild()
	return p
}

// start launches the periodic health sweep.
func (p *pool) start() {
	p.stopped.Add(1)
	go func() {
		defer p.stopped.Done()
		t := time.NewTicker(p.interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.CheckNow(context.Background())
			}
		}
	}()
}

// shutdown stops the sweep loop and waits for it.
func (p *pool) shutdown() {
	close(p.stop)
	p.stopped.Wait()
}

// CheckNow probes every backend once and rebuilds the ring if any
// state changed. Exposed (via the Gateway) so tests and operators can
// force a sweep instead of sleeping through the interval.
func (p *pool) CheckNow(ctx context.Context) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sweepStart := time.Now()
	probes := make([]sweepProbe, 0, len(p.backends))
	changed := false
	for _, b := range p.backends {
		probeStart := time.Now()
		probeCtx, cancel := context.WithTimeout(ctx, healthTimeout)
		hs, err := b.client.Health(probeCtx)
		cancel()
		healthy := err == nil && hs.Status == "ok"
		switch {
		case err != nil:
			b.lastErr.Store(err.Error())
		case hs.Status != "ok":
			// A draining replica answers health truthfully; the pool
			// removes it so new work reroutes before the drain deadline.
			b.lastErr.Store("backend reports status " + hs.Status)
		default:
			b.lastErr.Store("")
		}
		if b.healthy.Swap(healthy) != healthy {
			changed = true
		}
		probes = append(probes, sweepProbe{
			url:     b.URL,
			healthy: healthy,
			detail:  b.lastErr.Load().(string),
			start:   probeStart,
			dur:     time.Since(probeStart),
		})
	}
	if changed {
		p.rebuildLocked()
	}
	if p.onSweep != nil {
		p.onSweep(sweepStart, time.Since(sweepStart), probes, changed)
	}
}

// markUnhealthy eagerly removes a backend the forward path just failed
// against, without waiting for the next sweep. The sweep re-admits it
// once it answers health checks again.
func (p *pool) markUnhealthy(b *Backend, reason string) {
	b.lastErr.Store(reason)
	if b.healthy.Swap(false) {
		p.rebuild()
	}
}

// rebuild recomputes the ring from the currently-healthy members.
func (p *pool) rebuild() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rebuildLocked()
}

func (p *pool) rebuildLocked() {
	ids := make([]string, 0, len(p.backends))
	for _, b := range p.backends {
		if b.Healthy() {
			ids = append(ids, b.URL)
		}
	}
	p.ring.Store(newRing(ids))
}

// candidates returns up to n distinct healthy backends for key in ring
// order (owner first). A backend that turned unhealthy since the ring
// was built is filtered; nil means no backend can serve the key.
func (p *pool) candidates(key string, n int) []*Backend {
	r := p.ring.Load()
	if r == nil {
		return nil
	}
	out := make([]*Backend, 0, n)
	for _, id := range r.sequence(key, n) {
		if b := p.byURL[id]; b != nil && b.Healthy() {
			out = append(out, b)
		}
	}
	return out
}

// ringSize returns the virtual-node point count of the current ring
// (healthy backends × vnodes) — the lna_gateway_ring_size gauge.
func (p *pool) ringSize() int {
	r := p.ring.Load()
	if r == nil {
		return 0
	}
	return len(r.points)
}

// healthyCount returns how many backends are in the ring.
func (p *pool) healthyCount() int {
	n := 0
	for _, b := range p.backends {
		if b.Healthy() {
			n++
		}
	}
	return n
}

// states snapshots every backend for the health payload.
func (p *pool) states() []BackendState {
	out := make([]BackendState, 0, len(p.backends))
	for _, b := range p.backends {
		a := &b.attempts
		out = append(out, BackendState{
			URL:       b.URL,
			Healthy:   b.Healthy(),
			LastError: b.lastErr.Load().(string),
			Forwarded: a[outcomeOK].Load() + a[outcomeError].Load() + a[outcomeRetryable].Load(),
		})
	}
	return out
}
