// Command lna (Local Non-Aliasing) is the command-line front end to
// the restrict/confine toolkit:
//
//	lna check FILE          verify restrict/confine annotations (§4, §6.1)
//	lna infer FILE          restrict inference: print the program with
//	                        every let that can become restrict marked (§5)
//	lna confine FILE        confine inference: print the program with
//	                        inferred confines inserted (§6, §7)
//	lna qual FILE           three-mode locking analysis of one module (§7)
//	lna fmt FILE            print the program in canonical form
//	lna run FILE [ARGS...]  interpret FILE's main(int args...) (§3.2)
//	lna serve               long-running analysis daemon (HTTP/JSON)
//	lna gateway             distributed front over N serve replicas:
//	                        consistent-hash routing by cache key, health
//	                        checks, retries, admission control
//	lna trace fetch ID      assemble one distributed trace: pull the
//	                        fragment from -remote plus (via /v1/fleet)
//	                        every replica's fragment, merged into one
//	                        Chrome trace_event file (-o FILE)
//	lna top                 one-shot fleet status table from a
//	                        gateway's /v1/fleet (-remote; degrades to
//	                        /v1/stats against a plain daemon)
//
// Flags may appear before or after the subcommand (`lna -json qual
// f.mc` and `lna qual -json f.mc` are equivalent):
//
//	-params    also infer restrict on ref-typed parameters
//	-liberal   check with the liberal §5 restrict-effect semantics
//	-json      emit the canonical service.AnalyzeResponse as JSON
//	           (check/infer/confine/qual)
//	-trace-out FILE  write a Chrome trace_event JSON file of the
//	           request's phase spans (check/infer/confine/qual);
//	           open it at chrome://tracing or https://ui.perfetto.dev
//	-remote URL  send the request to a running daemon or gateway
//	           instead of analyzing in-process; with -json the server's
//	           response bytes are relayed verbatim
//	-lib FILE  library module for cross-module analysis (repeatable;
//	           confine/qual only). The module's import name is the
//	           file's base name without extension, so `-lib dir/xio.mc`
//	           satisfies `import "xio"`. A missing package or an import
//	           cycle is a finding (exit 1), reported with the uniform
//	           "import error" text on stderr
//
// Gateway flags:
//
//	-addr            listen address (shared with serve)
//	-backends        comma-separated backend base URLs (required)
//	-health-interval period between backend health sweeps
//	-retries         reroute attempts after the owning backend fails
//	-max-inflight    admission cap on concurrently forwarded requests
//
// Serve flags:
//
//	-addr            listen address (default 127.0.0.1:8347; port 0
//	                 picks a free port, printed on startup)
//	-workers         analysis pool size (0 = GOMAXPROCS)
//	-cache-entries   LRU result-cache capacity
//	-queue-depth     max in-flight single requests before 429
//	-request-timeout per-module analysis deadline
//	-log-format      access-log rendering: text (default), json, or off
//	-debug-addr      optional second listener exposing /debug/pprof/*
//	                 and a Prometheus /metrics scrape (default off;
//	                 bind loopback only — it is unauthenticated)
//
// The analysis subcommands and the daemon share one engine and one
// response shape (package service): `lna check -json FILE` emits
// byte-for-byte the JSON that POST /v1/analyze returns for the same
// module. Exit codes follow the shared policy: 0 clean, 1 findings,
// 2 usage/IO error, 3 degraded (a contained panic, timeout, or
// internal inconsistency — reported as a structured failure, never a
// raw Go stack trace).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"localalias/internal/ast"
	"localalias/internal/core"
	"localalias/internal/faults"
	"localalias/internal/gateway"
	"localalias/internal/interp"
	"localalias/internal/obs"
	"localalias/internal/service"
)

// subcommands names every lna subcommand, for validation and the
// misplaced-flag error.
var subcommands = []string{"check", "infer", "confine", "qual", "fmt", "run", "serve", "gateway", "trace", "top"}

// analysisModes are the subcommands served by the shared service
// engine (and therefore by `lna serve`).
var analysisModes = map[string]bool{"check": true, "infer": true, "confine": true, "qual": true}

// splitCommand locates the subcommand in the raw argument list: the
// first token that is not a flag. Flags on either side of it are
// collected, in order, for the flag parser (the parser itself stops
// at the first positional argument, so trailing interpreter arguments
// like `lna run f.mc -3` still pass through untouched). When every
// token is a flag, the error names the first one so the user sees
// which flag stranded the command line.
func splitCommand(args []string) (cmd string, rest []string, err error) {
	known := make(map[string]bool, len(subcommands))
	for _, s := range subcommands {
		known[s] = true
	}
	isFlag := func(a string) bool {
		return strings.HasPrefix(a, "-") && a != "-" && a != "--"
	}
	for i, a := range args {
		if isFlag(a) {
			continue
		}
		if !known[a] && i > 0 && isFlag(args[i-1]) && !strings.Contains(args[i-1], "=") {
			// A bare token right after a `=`-less flag may be that
			// flag's value (`lna -trace-out out.json check f.mc`).
			// If a known subcommand appears later, keep this token
			// with its flag and split there instead.
			for j := i + 1; j < len(args); j++ {
				if known[args[j]] {
					rest = append(append(rest, args[:j]...), args[j+1:]...)
					return args[j], rest, nil
				}
			}
		}
		rest = append(append(rest, args[:i]...), args[i+1:]...)
		return a, rest, nil
	}
	if len(args) > 0 {
		return "", nil, fmt.Errorf("found flag %s but no subcommand (expected one of %s)",
			args[0], strings.Join(subcommands, "|"))
	}
	return "", nil, fmt.Errorf("no subcommand given")
}

// libList collects the repeatable -lib flag.
type libList []string

func (l *libList) String() string     { return strings.Join(*l, ",") }
func (l *libList) Set(v string) error { *l = append(*l, v); return nil }

// options carries the parsed flags into the subcommand bodies.
type options struct {
	params, liberal, asJSON bool
	traceOut                string
	libs                    libList

	addr           string
	workers        int
	cacheEntries   int
	queueDepth     int
	requestTimeout time.Duration
	logFormat      string
	debugAddr      string
	traceEntries   int

	remote string

	backends       string
	healthInterval time.Duration
	retries        int
	maxInflight    int

	out string
}

func main() {
	cmd, rest, err := splitCommand(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "lna:", err)
		usage()
		os.Exit(service.ExitUsage)
	}
	known := false
	for _, s := range subcommands {
		known = known || s == cmd
	}
	if !known {
		fmt.Fprintf(os.Stderr, "lna: unknown subcommand %q\n", cmd)
		usage()
		os.Exit(service.ExitUsage)
	}

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var opt options
	fs.BoolVar(&opt.params, "params", false, "also infer restrict on ref-typed parameters")
	fs.BoolVar(&opt.liberal, "liberal", false, "check with the liberal §5 restrict-effect semantics")
	fs.BoolVar(&opt.asJSON, "json", false, "emit the canonical AnalyzeResponse as JSON")
	fs.StringVar(&opt.traceOut, "trace-out", "", "write a Chrome trace_event JSON file of the request's phase spans")
	fs.Var(&opt.libs, "lib", "library module file for cross-module analysis (repeatable; confine/qual only; import name = base name without extension)")
	fs.StringVar(&opt.addr, "addr", "127.0.0.1:8347", "serve: listen address (port 0 picks a free port)")
	fs.IntVar(&opt.workers, "workers", 0, "serve: analysis pool size (0 = GOMAXPROCS)")
	fs.IntVar(&opt.cacheEntries, "cache-entries", service.DefaultCacheEntries, "serve: LRU result-cache capacity")
	fs.IntVar(&opt.queueDepth, "queue-depth", 0, "serve: max in-flight single requests before 429 (0 = 4×workers)")
	fs.DurationVar(&opt.requestTimeout, "request-timeout", service.DefaultRequestTimeout, "serve: per-module analysis deadline")
	fs.StringVar(&opt.logFormat, "log-format", "text", "serve/gateway: access-log rendering (text|json|off)")
	fs.StringVar(&opt.debugAddr, "debug-addr", "", "serve: optional pprof+metrics listener (empty = off)")
	fs.IntVar(&opt.traceEntries, "trace-entries", 0, "serve/gateway: in-memory ring of completed traces for /v1/trace/{id} (0 = default 256; negative disables tracing)")
	fs.StringVar(&opt.remote, "remote", "", "send the analysis to this daemon or gateway base URL instead of running in-process (check/infer/confine/qual)")
	fs.StringVar(&opt.backends, "backends", "", "gateway: comma-separated backend base URLs (required)")
	fs.DurationVar(&opt.healthInterval, "health-interval", gateway.DefaultHealthInterval, "gateway: period between backend health sweeps")
	fs.IntVar(&opt.retries, "retries", gateway.DefaultRetries, "gateway: reroute attempts after the owning backend fails (per request)")
	fs.IntVar(&opt.maxInflight, "max-inflight", gateway.DefaultMaxInflight, "gateway: admission-control cap on concurrently forwarded requests")
	fs.StringVar(&opt.out, "o", "", "trace fetch: output file (default <id>.trace.json)")
	if err := fs.Parse(rest); err != nil {
		// The flag package has already printed the offending flag and
		// the flag set's usage.
		os.Exit(service.ExitUsage)
	}
	args := fs.Args()

	switch {
	case cmd == "serve":
		os.Exit(runServe(opt))
	case cmd == "gateway":
		os.Exit(runGateway(opt))
	case cmd == "trace":
		os.Exit(runTraceFetch(opt, args))
	case cmd == "top":
		os.Exit(runTop(opt))
	}

	if len(args) < 1 {
		usage()
		os.Exit(service.ExitUsage)
	}
	file := args[0]
	src, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}

	if len(opt.libs) > 0 && cmd != "confine" && cmd != "qual" {
		fmt.Fprintf(os.Stderr, "lna: -lib is only supported with confine and qual (got %s)\n", cmd)
		os.Exit(service.ExitUsage)
	}

	if analysisModes[cmd] {
		if opt.remote != "" {
			os.Exit(runRemoteAnalysis(cmd, file, string(src), opt))
		}
		os.Exit(runAnalysis(cmd, file, string(src), opt))
	}
	os.Exit(runLocal(cmd, file, string(src), args))
}

// loadLibraries reads every -lib file into a LibrarySource. The import
// name a library satisfies is its base name without extension, so a
// module can say `import "xio"` and the user can say `-lib dir/xio.mc`.
func loadLibraries(libs []string) ([]service.LibrarySource, error) {
	out := make([]service.LibrarySource, 0, len(libs))
	for _, path := range libs {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		base := filepath.Base(path)
		name := strings.TrimSuffix(base, filepath.Ext(base))
		out = append(out, service.LibrarySource{Name: name, Source: string(src)})
	}
	return out, nil
}

// reportImportErrors prints the uniform cross-module error lines on
// stderr: one "import error" line per missing package or import
// cycle, so scripts can grep one prefix regardless of which of the
// two failures occurred. The diagnostics themselves (and the exit
// code — these are findings, exit 1) are unchanged.
func reportImportErrors(resp *service.AnalyzeResponse) {
	for _, d := range resp.Diagnostics.Diags {
		if d.Severity != "error" {
			continue
		}
		if strings.HasPrefix(d.Message, "cannot resolve import") ||
			strings.HasPrefix(d.Message, "import cycle") ||
			strings.Contains(d.Message, "duplicate module name") {
			pos := d.Pos
			if pos == "" {
				pos = resp.Module
			}
			fmt.Fprintf(os.Stderr, "lna: import error at %s: %s\n", pos, d.Message)
		}
	}
}

// runAnalysis drives check/infer/confine/qual through the shared
// service engine — the same code path `lna serve` and the experiment
// driver use — and renders the response for humans or as canonical
// JSON. The returned exit code follows the shared policy table.
func runAnalysis(cmd, file, src string, opt options) int {
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
			fatal(err)
		}
		req.Options.MultiModule = true
		req.Options.Libraries = libs
	}
	if opt.traceOut != "" {
		req.Obs = obs.NewTrace(file)
	}
	resp := service.Analyze(context.Background(), req)
	if opt.traceOut != "" {
		if err := writeTrace(opt.traceOut, req.Obs); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "lna: trace %s written to %s\n", req.Obs.ID(), opt.traceOut)
	}
	if opt.asJSON {
		data, err := resp.MarshalCanonical()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return resp.ExitCode()
	}
	renderResponse(cmd, resp)
	return resp.ExitCode()
}

// writeTrace exports one request's spans as Chrome trace_event JSON.
func writeTrace(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// renderResponse prints the human-readable report for one analysis
// response: positioned diagnostics with excerpts first, then the
// mode-specific report, then (on stderr) any contained failure.
func renderResponse(cmd string, resp *service.AnalyzeResponse) {
	if resp.Raw != nil {
		fmt.Print(resp.Raw.RenderAll())
	}
	reportImportErrors(resp)
	switch {
	case resp.Failure != nil:
		f := resp.Failure
		if f.Kind == obs.KindPanic {
			fmt.Fprintf(os.Stderr, "lna: %s: internal error during %s: panic: %s\n",
				resp.Module, f.Phase, f.Message)
			if top := faults.TopFrame(f.Stack); top != "" {
				fmt.Fprintf(os.Stderr, "    at %s\n", top)
			}
		} else {
			fmt.Fprintf(os.Stderr, "lna: %s\n", f.Error())
		}
		return
	case resp.Check != nil:
		if resp.Check.OK {
			fmt.Println("ok: all restrict/confine annotations verified")
			if resp.Check.UsedFigure5 {
				fmt.Println("(checked with the O(kn) Figure 5 algorithm)")
			}
		}
	case resp.Infer != nil:
		fmt.Printf("restrict inference: %d of %d candidates restricted\n",
			resp.Infer.Restricted, resp.Infer.Candidates)
		for _, m := range resp.Infer.Marked {
			fmt.Printf("  restrict %s\n", m)
		}
		for _, r := range resp.Infer.Rejected {
			fmt.Printf("  keep     %s\n", r)
		}
		fmt.Println("--- annotated program ---")
		fmt.Print(resp.Program)
	case cmd == "confine" && resp.Locking != nil:
		fmt.Printf("confine inference: planted %d candidate(s), kept %d\n",
			resp.Locking.Planted, resp.Locking.Kept)
		fmt.Println("--- transformed program ---")
		fmt.Print(resp.Program)
	case resp.Locking != nil:
		report := func(name string, r service.ModeReport) {
			fmt.Printf("%-18s %3d type error(s) at %d lock-op site(s)\n",
				name+":", r.NumErrors, resp.Locking.Sites)
			for _, e := range r.Errors {
				fmt.Printf("    %s: %s\n", e.Pos, e.Message)
			}
		}
		report("no confine", resp.Locking.NoConfine)
		report("confine inference", resp.Locking.WithConfine)
		report("all-strong bound", resp.Locking.AllStrong)
	}
}

// runServe starts the resident analysis daemon and blocks until
// SIGINT/SIGTERM, then drains gracefully.
func runServe(opt options) int {
	accessLog, err := accessLogger(opt.logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lna: serve:", err)
		return service.ExitUsage
	}
	srv := service.NewServer(service.ServerOptions{
		Workers:        opt.workers,
		CacheEntries:   opt.cacheEntries,
		QueueDepth:     opt.queueDepth,
		RequestTimeout: opt.requestTimeout,
		AccessLog:      accessLog,
		TraceEntries:   opt.traceEntries,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if opt.debugAddr != "" {
		// The debug listener exposes pprof profiles and the Prometheus
		// scrape on a separate, opt-in port so the service port never
		// serves unauthenticated profiling data.
		dln, err := net.Listen("tcp", opt.debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lna: serve: debug listener:", err)
			return service.ExitUsage
		}
		fmt.Printf("lna serve debug listening on http://%s (pprof + metrics)\n", dln.Addr())
		dsrv := &http.Server{Handler: obs.DebugHandler()}
		go func() { _ = dsrv.Serve(dln) }()
		defer dsrv.Close()
	}
	err = srv.ListenAndServe(ctx, opt.addr, func(bound string) {
		o := srv.Options()
		fmt.Printf("lna serve listening on http://%s (workers=%d cache=%d queue=%d timeout=%v)\n",
			bound, o.Workers, o.CacheEntries, o.QueueDepth, o.RequestTimeout)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lna: serve:", err)
		return service.ExitUsage
	}
	cs := srv.CacheStats()
	fmt.Printf("lna serve drained (cache: %d hits, %d misses, %d evictions)\n",
		cs.Hits, cs.Misses, cs.Evictions)
	return service.ExitClean
}

// accessLogger resolves -log-format for serve and gateway: text or
// json logs go to stderr, off disables access logging.
func accessLogger(format string) (*service.AccessLogger, error) {
	if format == "off" {
		return nil, nil
	}
	l, err := service.NewAccessLogger(os.Stderr, format)
	if err != nil {
		return nil, fmt.Errorf("unknown -log-format %q (want text|json|off)", format)
	}
	return l, nil
}

// runLocal executes the subcommands that do not go through the
// analysis engine (fmt, run) under the fault guard, so a panic still
// degrades to a structured report.
func runLocal(cmd, file, src string, args []string) int {
	tr := faults.NewTrace()
	var mod *core.Module
	code := service.ExitClean
	fail := faults.Run(file, tr, func() error {
		m, err := core.LoadModuleTraced(file, src, tr)
		mod = m
		if err != nil {
			return err
		}
		switch cmd {
		case "fmt":
			_ = ast.Fprint(os.Stdout, mod.Prog)
		case "run":
			var vals []interp.Value
			for _, a := range args[1:] {
				n, err := strconv.ParseInt(a, 10, 64)
				if err != nil {
					return fmt.Errorf("argument %q is not an integer", a)
				}
				vals = append(vals, n)
			}
			in := interp.New(mod.TInfo, interp.Options{Out: os.Stdout})
			v, err := in.Call("main", vals...)
			if err != nil {
				return err
			}
			fmt.Printf("=> %s\n", interp.FormatValue(v))
		}
		return nil
	})
	if fail == nil {
		return code
	}
	if fail.Kind == obs.KindPanic {
		if mod != nil {
			fmt.Print(mod.Diags.RenderAll())
		}
		fmt.Fprintf(os.Stderr, "lna: %s: internal error during %s: panic: %s\n",
			file, fail.Phase, fail.Message)
		if top := faults.TopFrame(fail.Stack); top != "" {
			fmt.Fprintf(os.Stderr, "    at %s\n", top)
		}
		return service.ExitDegraded
	}
	fmt.Fprintln(os.Stderr, "lna:", fail.Message)
	return service.ExitFindings
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lna:", err)
	os.Exit(service.ExitUsage)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lna [flags] <check|infer|confine|qual|fmt|run|serve|gateway|trace|top> [flags] [FILE] [args...]`)
}
