package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"localalias/internal/client"
	"localalias/internal/gateway"
	"localalias/internal/service"
)

// remoteClient builds the shared v1 client for -remote targets.
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
