package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"localalias/internal/bench"
	"localalias/internal/client"
	"localalias/internal/drivergen"
	"localalias/internal/gateway"
	"localalias/internal/service"
)

// remoteClient builds the shared v1 client for -remote / bench
// targets.
func remoteClient(url string) *client.Client {
	return client.New(url, client.Options{})
}

// runRemoteAnalysis sends one analysis request to a daemon or gateway
// instead of running the engine in-process. The response is the same
// canonical shape either way: -json relays the server's bytes
// verbatim (byte-identical to a local `lna <mode> -json` run), and
// the human rendering plus exit code come from decoding them.
func runRemoteAnalysis(cmd, file, src string, opt options) int {
	req := &service.AnalyzeRequest{
		Module: file,
		Source: src,
		Options: service.AnalyzeOptions{
			Mode:    cmd,
			Params:  opt.params,
			Liberal: opt.liberal,
		},
	}
	if len(opt.libs) > 0 {
		libs, err := loadLibraries(opt.libs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lna:", err)
			return service.ExitUsage
		}
		req.Options.MultiModule = true
		req.Options.Libraries = libs
	}
	c := remoteClient(opt.remote)
	raw, _, err := c.AnalyzeRaw(context.Background(), req)
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			fmt.Fprintf(os.Stderr, "lna: %s: %s\n", opt.remote, apiErr)
			return apiErr.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "lna: %s: %v\n", opt.remote, err)
		return service.ExitUsage
	}
	var resp service.AnalyzeResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		fmt.Fprintf(os.Stderr, "lna: %s returned an undecodable response: %v\n", opt.remote, err)
		return service.ExitDegraded
	}
	if opt.asJSON {
		os.Stdout.Write(raw)
		return resp.ExitCode()
	}
	renderResponse(cmd, &resp)
	return resp.ExitCode()
}

// runGateway starts the distributed gateway tier over a
// comma-separated backend list and blocks until SIGINT/SIGTERM.
func runGateway(opt options) int {
	var backends []string
	for _, u := range strings.Split(opt.backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			backends = append(backends, u)
		}
	}
	accessLog, err := accessLogger(opt.logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lna: gateway:", err)
		return service.ExitUsage
	}
	g, err := gateway.New(gateway.Options{
		Backends:       backends,
		HealthInterval: opt.healthInterval,
		Retries:        opt.retries,
		MaxInflight:    opt.maxInflight,
		AccessLog:      accessLog,
		TraceEntries:   opt.traceEntries,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lna: gateway:", err)
		return service.ExitUsage
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = g.ListenAndServe(ctx, opt.addr, func(bound string) {
		fmt.Printf("lna gateway listening on http://%s (backends=%d retries=%d max-inflight=%d)\n",
			bound, len(backends), g.Retries(), g.MaxInflight())
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lna: gateway:", err)
		return service.ExitUsage
	}
	st := g.Stats()
	fmt.Printf("lna gateway drained (%d requests, %d batches, %d rejected, %d retries)\n",
		st.Requests, st.BatchRequests, st.Rejected, st.Retries)
	return service.ExitClean
}

// runBench drives the open-loop load generator against -remote (a
// daemon or a gateway — the client cannot tell, which is the point)
// and prints the latency/throughput report.
func runBench(opt options) int {
	if opt.remote == "" {
		fmt.Fprintln(os.Stderr, "lna: bench: -remote URL is required (a daemon or gateway base URL)")
		return service.ExitUsage
	}
	n := opt.benchModules
	if n <= 0 || n > drivergen.NumModules {
		n = drivergen.NumModules
	}
	reqs := make([]service.AnalyzeRequest, 0, n)
	for _, spec := range drivergen.Corpus()[:n] {
		reqs = append(reqs, service.AnalyzeRequest{
			Module: spec.Name + ".mc", Source: spec.Source(),
			Options: service.AnalyzeOptions{Mode: service.ModeCheck},
		})
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	progress := func(line string) { fmt.Fprintln(os.Stderr, "lna: bench:", line) }
	if opt.asJSON {
		progress = nil
	}
	rep, err := bench.Run(ctx, bench.Options{
		Client:   remoteClient(opt.remote),
		RPS:      opt.rps,
		Duration: opt.duration,
		Requests: reqs,
		Warm:     opt.replay,
		Progress: progress,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lna: bench:", err)
		return service.ExitUsage
	}
	if opt.asJSON {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "lna: bench:", err)
			return service.ExitUsage
		}
		os.Stdout.Write(append(data, '\n'))
	} else {
		fmt.Printf("bench %s: %d offered at %.0f rps over %.1fs (%d modules%s)\n",
			opt.remote, rep.Offered, rep.TargetRPS, rep.DurationSeconds, n,
			map[bool]string{true: ", warm replay", false: ""}[opt.replay])
		fmt.Printf("  completed %d (%.1f rps)  rejected %d  errors %d  shed %d\n",
			rep.Completed, rep.AchievedRPS, rep.Rejected, rep.Errors, rep.Shed)
		if len(rep.ErrorsByCode) > 0 {
			codes := make([]string, 0, len(rep.ErrorsByCode))
			for code := range rep.ErrorsByCode {
				codes = append(codes, code)
			}
			sort.Strings(codes)
			parts := make([]string, 0, len(codes))
			for _, code := range codes {
				parts = append(parts, fmt.Sprintf("%s=%d", code, rep.ErrorsByCode[code]))
			}
			fmt.Printf("  errors by code: %s\n", strings.Join(parts, "  "))
		}
		fmt.Printf("  cache: %d hits / %d misses (hit rate %.2f)\n",
			rep.CacheHits, rep.CacheMisses, rep.HitRate)
		fmt.Printf("  latency ms: p50 %.3f  p95 %.3f  p99 %.3f  mean %.3f  max %.3f\n",
			rep.LatencyMsP50, rep.LatencyMsP95, rep.LatencyMsP99, rep.LatencyMsMean, rep.LatencyMsMax)
	}
	if rep.Errors > 0 {
		return service.ExitDegraded
	}
	return service.ExitClean
}

// benchDuration is the `lna bench` default run length.
const benchDuration = 10 * time.Second
