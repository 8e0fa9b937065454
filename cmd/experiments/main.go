// Command experiments regenerates every table and figure of the
// paper's Section 7 evaluation over the synthetic 589-module driver
// corpus:
//
//	experiments               # everything: summary, Figure 6, Figure 7, timing
//	experiments -summary      # E1 only
//	experiments -fig6         # Figure 6 only
//	experiments -fig7         # Figure 7 only
//	experiments -timing       # E4 only (ide_tape, then the corpus-wide ratio)
//	experiments -dump DIR     # write the generated corpus sources to DIR
//	experiments -phases       # with -summary: per-phase p50/p95/max table
//	experiments -bench-trace-json FILE
//	                          # tracing overhead on the gateway relay path
//	experiments -xmodule      # cross-module precision table (havoc vs summaries)
//
// Fault-containment flags:
//
//	-module-timeout D    per-module analysis deadline (default 2m, 0 = none)
//	-failures-json FILE  write the degraded-run failure report as JSON
//	                     (- for stdout)
//
// -csv and -failures-json describe a corpus run, so they need one of
// -summary, -fig6, -fig7 or no mode flag; with -timing alone, -xmodule,
// -dump or -bench-trace-json they are a usage error (exit 2).
//
// A run where some module panics or exceeds its deadline still
// completes the rest of the corpus; the numbers then cover only the
// surviving modules, a degraded-run summary goes to stderr, and the
// process exits 3. Mismatches between measured and expected triples
// exit 1. Degradation takes precedence over mismatches.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"localalias/internal/drivergen"
	"localalias/internal/experiments"
	"localalias/internal/faults"
	"localalias/internal/service"
)

// Exit codes follow the policy table shared with cmd/lna (package
// service): 0 clean, 1 findings (corpus mismatches), 2 usage/IO
// errors, 3 degraded run (some module failed or timed out).
const (
	exitMismatch = service.ExitFindings
	exitError    = service.ExitUsage
	exitDegraded = service.ExitDegraded
)

// failureReportSlowest is how many of the slowest surviving modules
// the failure report lists with per-phase timings.
const failureReportSlowest = 10

func main() {
	var (
		summary       = flag.Bool("summary", false, "print only the Section 7 summary (E1)")
		fig6          = flag.Bool("fig6", false, "print only Figure 6 (E2)")
		fig7          = flag.Bool("fig7", false, "print only Figure 7 (E3)")
		timing        = flag.Bool("timing", false, "print only the timing comparison (E4)")
		rounds        = flag.Int("rounds", 5, "timing rounds for -timing")
		dump          = flag.String("dump", "", "write generated corpus sources to this directory and exit")
		csvPath       = flag.String("csv", "", "also write per-module results as CSV to this file")
		benchTrJSON   = flag.String("bench-trace-json", "", "run the tracing-overhead benchmarks (gateway relay with tracing off vs on, interleaved), write the report as JSON to this file (- for stdout), and exit")
		xmodule       = flag.Bool("xmodule", false, "print the cross-module precision table (per-module havoc vs package summaries) and exit")
		phases        = flag.Bool("phases", false, "also print the per-phase p50/p95/max timing table with the summary")
		quiet         = flag.Bool("q", false, "suppress progress output")
		moduleTimeout = flag.Duration("module-timeout", 2*time.Minute, "per-module analysis deadline (0 disables it)")
		failuresJSON  = flag.String("failures-json", "", "write the failure report as JSON to this file (- for stdout)")
	)
	flag.Parse()

	all := !*summary && !*fig6 && !*fig7 && !*timing
	corpusRun := (all || *summary || *fig6 || *fig7) && *dump == "" && *benchTrJSON == "" && !*xmodule
	if !corpusRun && (*csvPath != "" || *failuresJSON != "") {
		fmt.Fprintln(os.Stderr, "error: -csv and -failures-json need a corpus run (-summary, -fig6, -fig7 or no mode flag)")
		flag.Usage()
		os.Exit(exitError)
	}

	if *dump != "" {
		if err := dumpCorpus(*dump); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		}
		return
	}

	if *benchTrJSON != "" {
		var progress io.Writer
		if !*quiet {
			progress = os.Stderr
			fmt.Fprintln(progress, "running tracing-overhead benchmarks (interleaved off/on pairs; this takes a minute)...")
		}
		data, err := experiments.RunTraceBenchJSON(progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		}
		data = append(data, '\n')
		if *benchTrJSON == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*benchTrJSON, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		} else if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *benchTrJSON)
		}
		return
	}

	if *xmodule {
		xres := experiments.RunXmoduleCorpus()
		fmt.Println(xres.Table())
		if len(xres.Failures) > 0 {
			fmt.Fprintf(os.Stderr, "modules failed to analyze: %v\n", xres.Failures)
			os.Exit(exitDegraded)
		}
		if xres.Mismatches > 0 || !xres.SummaryWinsEveryColumn() {
			os.Exit(exitMismatch)
		}
		return
	}

	var res *experiments.CorpusResult
	if corpusRun {
		specs, err := loadCorpus()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		}
		var progress *os.File
		if !*quiet {
			progress = os.Stderr
			fmt.Fprintf(progress, "analyzing %d driver modules in three modes...\n", len(specs))
		}
		start := time.Now()
		res = experiments.RunCorpus(context.Background(), experiments.CorpusOptions{
			Specs:         specs,
			Progress:      progress,
			ModuleTimeout: *moduleTimeout,
		})
		if !*quiet {
			fmt.Fprintf(progress, "done in %v\n", time.Since(start).Round(time.Millisecond))
			fmt.Fprintf(progress, "solver totals: %s\n\n", res.SolveStats)
		}
	}

	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(res.CSV()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
		}
	}

	if *failuresJSON != "" {
		data, err := res.FailuresJSON(failureReportSlowest)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		}
		data = append(data, '\n')
		if *failuresJSON == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*failuresJSON, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		} else if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *failuresJSON)
		}
	}

	if all || *summary {
		fmt.Println(res.Summary())
		if *phases || all {
			if t := res.PhaseTable(); t != "" {
				fmt.Println(t)
			}
		}
	}
	if all || *fig6 {
		fmt.Println(res.Figure6())
	}
	if all || *fig7 {
		fmt.Println(res.Figure7())
	}
	if all || *timing {
		tr, err := experiments.Timing(*rounds)
		if err == nil {
			fmt.Println(tr.String())
			tr, err = experiments.TimingCorpus(*rounds)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		}
		fmt.Println(tr.String())
	}
	if res != nil && res.Degraded() {
		fmt.Fprintln(os.Stderr, res.FailureSummary(failureReportSlowest))
		os.Exit(exitDegraded)
	}
	if res != nil && res.Mismatches > 0 {
		os.Exit(exitMismatch)
	}
}

// loadCorpus builds the generated corpus under a fault guard, so a
// generator panic reports as a structured failure instead of killing
// the process with a raw stack trace.
func loadCorpus() (specs []*drivergen.ModuleSpec, err error) {
	if fail := faults.Run("corpus", nil, func() error {
		specs = drivergen.Corpus()
		return nil
	}); fail != nil {
		return nil, fmt.Errorf("corpus generation failed: %s\n%s", fail.Message, fail.Stack)
	}
	return specs, nil
}

func dumpCorpus(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n, err := drivergen.WriteCorpus(func(name, contents string) error {
		return os.WriteFile(filepath.Join(dir, name), []byte(contents), 0o644)
	})
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d modules to %s\n", n, dir)
	return nil
}
