package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"localalias/internal/client"
	"localalias/internal/gateway"
	"localalias/internal/obs"
	"localalias/internal/service"
)

// This file is the fleet-facing side of the CLI: `lna trace fetch`
// assembles one distributed trace from every process that holds a
// fragment of it, and `lna top` renders the gateway's /v1/fleet
// snapshot as a one-shot status table.

// fleetTimeout bounds each individual fetch these commands make; both
// are interactive one-shots, so a hung process should fail fast.
const fleetTimeout = 10 * time.Second

// fetchFleet retrieves /v1/fleet from the target. A daemon (or an old
// gateway) answers 404 for the unknown route; that degrades to
// (nil, false) so callers can fall back to single-process behaviour.
func fetchFleet(ctx context.Context, c *client.Client) (*gateway.FleetStatus, bool, error) {
	res, err := c.GetRaw(ctx, "/v1/fleet")
	if err != nil {
		return nil, false, err
	}
	if !res.OK() {
		return nil, false, nil
	}
	var fs gateway.FleetStatus
	if err := json.Unmarshal(res.Body, &fs); err != nil {
		return nil, false, fmt.Errorf("decoding /v1/fleet: %w", err)
	}
	return &fs, true, nil
}

// isNotFound reports whether err is the wire contract's not_found —
// "this process holds no fragment of that trace", which the assembler
// tolerates per process.
func isNotFound(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Err != nil && apiErr.Err.Code == service.CodeNotFound
}

// runTraceFetch implements `lna trace fetch -remote URL [-o FILE] ID`:
// it pulls the trace's fragment from the target, discovers the
// target's replicas through /v1/fleet (absent on a plain daemon), pulls
// each replica's fragment of the same ID, and merges everything into
// one Chrome trace_event file. Cross-process parenting needs no
// stitching here: the replica spans already name the gateway's attempt
// spans as parents, because the trace context propagated on the wire.
func runTraceFetch(opt options, args []string) int {
	if len(args) < 1 || args[0] != "fetch" {
		fmt.Fprintln(os.Stderr, "lna: usage: lna trace fetch -remote URL [-o FILE] TRACE_ID")
		return service.ExitUsage
	}
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "lna: trace fetch: missing TRACE_ID (from the X-Lna-Trace response header or an access-log trace= field)")
		return service.ExitUsage
	}
	if opt.remote == "" {
		fmt.Fprintln(os.Stderr, "lna: trace fetch: -remote URL is required (a gateway or daemon base URL)")
		return service.ExitUsage
	}
	id := args[1]
	ctx, cancel := context.WithTimeout(context.Background(), fleetTimeout)
	defer cancel()
	c := remoteClient(opt.remote)

	var exports []*obs.TraceExport
	frag, err := c.Trace(ctx, id)
	switch {
	case err == nil:
		// Suffix the process label with the URL so two replicas (or a
		// gateway and a daemon) stay distinct pids in the merged view.
		frag.Process = frag.Process + " " + opt.remote
		exports = append(exports, frag)
	case isNotFound(err):
		// The front end may have evicted (or never seen) the trace while
		// a replica still holds its half; keep going.
	default:
		fmt.Fprintf(os.Stderr, "lna: trace fetch: %s: %v\n", opt.remote, err)
		return service.ExitUsage
	}

	fleet, ok, err := fetchFleet(ctx, c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lna: trace fetch: %s: %v\n", opt.remote, err)
		return service.ExitUsage
	}
	if ok {
		for _, rep := range fleet.Replicas {
			rc := remoteClient(rep.URL)
			f, err := rc.Trace(ctx, id)
			if err != nil {
				// A replica without the fragment (404) — or one that is
				// down — contributes nothing; the merged trace is built
				// from whoever answers.
				continue
			}
			f.Process = f.Process + " " + rep.URL
			exports = append(exports, f)
		}
	}
	if len(exports) == 0 {
		fmt.Fprintf(os.Stderr, "lna: trace fetch: no process holds trace %s (expired from every ring?)\n", id)
		return service.ExitUsage
	}

	out := opt.out
	if out == "" {
		out = id + ".trace.json"
	}
	fh, err := os.Create(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lna: trace fetch:", err)
		return service.ExitUsage
	}
	if err := obs.WriteChromeExports(fh, exports...); err != nil {
		fh.Close()
		fmt.Fprintln(os.Stderr, "lna: trace fetch:", err)
		return service.ExitUsage
	}
	if err := fh.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "lna: trace fetch:", err)
		return service.ExitUsage
	}
	spans := 0
	for _, ex := range exports {
		spans += len(ex.Spans)
	}
	fmt.Printf("lna: trace %s: %d fragment(s), %d span(s) written to %s\n",
		id, len(exports), spans, out)
	return service.ExitClean
}

// runTop implements `lna top -remote URL`: one /v1/fleet round trip
// rendered as a table — the gateway's own counters, then one row per
// replica joining the gateway's health view with the replica's own
// stats. Against a plain daemon (no /v1/fleet) it degrades to that
// daemon's /v1/stats.
func runTop(opt options) int {
	if opt.remote == "" {
		fmt.Fprintln(os.Stderr, "lna: top: -remote URL is required (a gateway or daemon base URL)")
		return service.ExitUsage
	}
	ctx, cancel := context.WithTimeout(context.Background(), fleetTimeout)
	defer cancel()
	c := remoteClient(opt.remote)
	fleet, ok, err := fetchFleet(ctx, c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lna: top: %s: %v\n", opt.remote, err)
		return service.ExitUsage
	}
	if !ok {
		st, err := c.Stats(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lna: top: %s: %v\n", opt.remote, err)
			return service.ExitUsage
		}
		fmt.Printf("daemon %s: workers=%d queue=%d requests=%d batches=%d rejected=%d failures=%d\n",
			opt.remote, st.Workers, st.QueueDepth, st.Requests, st.BatchRequests, st.Rejected, st.Failures)
		fmt.Printf("  cache: %d hits (%d coalesced) / %d misses, %d entries, %d evictions\n",
			st.Cache.Hits, st.Cache.Coalesced, st.Cache.Misses, st.Cache.Entries, st.Cache.Evictions)
		return service.ExitClean
	}

	gw := fleet.Gateway
	fmt.Printf("gateway %s: %d/%d backends healthy\n",
		opt.remote, gw.HealthyBackends, len(gw.Backends))
	fmt.Printf("  requests=%d batches=%d rejected=%d retries=%d max-inflight=%d\n",
		gw.Requests, gw.BatchRequests, gw.Rejected, gw.Retries, gw.MaxInflight)
	fmt.Printf("  %-28s %-9s %9s %9s %9s %9s %7s\n",
		"BACKEND", "HEALTHY", "FORWARDED", "REQUESTS", "HITS", "MISSES", "QUEUE")
	for _, rep := range fleet.Replicas {
		health := "ok"
		if !rep.Healthy {
			health = "down"
		}
		if rep.Stats == nil {
			detail := rep.StatsError
			if detail == "" {
				detail = rep.LastError
			}
			fmt.Printf("  %-28s %-9s %9d %9s %9s %9s %7s  %s\n",
				rep.URL, health, rep.Forwarded, "-", "-", "-", "-", detail)
			continue
		}
		st := rep.Stats
		fmt.Printf("  %-28s %-9s %9d %9d %9d %9d %7d\n",
			rep.URL, health, rep.Forwarded, st.Requests, st.Cache.Hits, st.Cache.Misses, st.QueueDepth)
	}
	return service.ExitClean
}
