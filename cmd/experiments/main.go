// Command experiments regenerates every table and figure of the
// paper's Section 7 evaluation over the synthetic 589-module driver
// corpus:
//
//	experiments               # everything: summary, Figure 6, Figure 7, timing
//	experiments -summary      # E1 only
//	experiments -fig6         # Figure 6 only
//	experiments -fig7         # Figure 7 only
//	experiments -timing       # E4 only
//	experiments -dump DIR     # write the generated corpus sources to DIR
//	experiments -phases       # with -summary: per-phase p50/p95/max table
//	experiments -bench-obs-json FILE
//	                          # observability-overhead benchmarks
//	experiments -bench-gateway-json FILE
//	                          # gateway open-loop load benchmarks
//	experiments -bench-trace-json FILE
//	                          # tracing overhead on the gateway relay path
//	experiments -xmodule      # cross-module precision table (havoc vs summaries)
//	experiments -bench-xmodule-json FILE
//	                          # cross-module DAG scheduler + summary-cache benchmarks
//
// Fault-containment flags:
//
//	-module-timeout D    per-module analysis deadline (default 2m, 0 = none)
//	-failures-json FILE  write the degraded-run failure report as JSON
//	                     (- for stdout)
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
		benchJSON     = flag.String("bench-json", "", "run the solver benchmarks, write ns/op as JSON to this file (- for stdout), and exit")
		benchObsJSON  = flag.String("bench-obs-json", "", "run the observability-overhead benchmarks (tracing disabled vs enabled), write ns/op as JSON to this file (- for stdout), and exit")
		benchParJSON  = flag.String("bench-parallel-json", "", "run the solver-pooling benchmarks (unpooled vs pooled solver, interleaved, steady-state solve and corpus at GOMAXPROCS 1/2/4), write the report as JSON to this file (- for stdout), and exit")
		benchGwJSON   = flag.String("bench-gateway-json", "", "run the gateway open-loop load benchmarks (1-replica vs 2-replica stacks, interleaved), write the report as JSON to this file (- for stdout), and exit")
		benchTrJSON   = flag.String("bench-trace-json", "", "run the tracing-overhead benchmarks (gateway relay with tracing off vs on, interleaved), write the report as JSON to this file (- for stdout), and exit")
		benchXmodJSON = flag.String("bench-xmodule-json", "", "run the cross-module benchmark (cold vs warm summary cache after a one-leaf edit, interleaved), write the report as JSON to this file (- for stdout), and exit")
		xmodule       = flag.Bool("xmodule", false, "print the cross-module precision table (per-module havoc vs package summaries) and exit")
		phases        = flag.Bool("phases", false, "also print the per-phase p50/p95/max timing table with the summary")
		quiet         = flag.Bool("q", false, "suppress progress output")
		moduleTimeout = flag.Duration("module-timeout", 2*time.Minute, "per-module analysis deadline (0 disables it)")
		failuresJSON  = flag.String("failures-json", "", "write the failure report as JSON to this file (- for stdout)")
	)
	flag.Parse()

	if *dump != "" {
		if err := dumpCorpus(*dump); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		}
		return
	}

	if *benchJSON != "" {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "running solver benchmarks (this takes a few seconds per benchmark)...")
		}
		data, err := experiments.RunBenchJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		}
		data = append(data, '\n')
		if *benchJSON == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*benchJSON, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		} else if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *benchJSON)
		}
		return
	}

	if *benchObsJSON != "" {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "running observability-overhead benchmarks (disabled vs traced)...")
		}
		data, err := experiments.RunObsBenchJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		}
		data = append(data, '\n')
		if *benchObsJSON == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*benchObsJSON, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		} else if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *benchObsJSON)
		}
		return
	}

	if *benchParJSON != "" {
		var progress io.Writer
		if !*quiet {
			progress = os.Stderr
			fmt.Fprintln(progress, "running solver-pooling benchmarks (interleaved before/after pairs; this takes a few minutes)...")
		}
		data, err := experiments.RunParallelBenchJSON(progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		}
		data = append(data, '\n')
		if *benchParJSON == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*benchParJSON, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		} else if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *benchParJSON)
		}
		return
	}

	if *benchGwJSON != "" {
		var progress io.Writer
		if !*quiet {
			progress = os.Stderr
			fmt.Fprintln(progress, "running gateway load benchmarks (interleaved 1-replica/2-replica pairs; this takes a minute)...")
		}
		data, err := experiments.RunGatewayBenchJSON(progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		}
		data = append(data, '\n')
		if *benchGwJSON == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*benchGwJSON, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		} else if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *benchGwJSON)
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

	if *benchXmodJSON != "" {
		var progress io.Writer
		if !*quiet {
			progress = os.Stderr
			fmt.Fprintln(progress, "running cross-module cache benchmark (interleaved before/after pairs; this takes a minute)...")
		}
		data, err := experiments.RunXmoduleBenchJSON(progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		}
		data = append(data, '\n')
		if *benchXmodJSON == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*benchXmodJSON, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		} else if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *benchXmodJSON)
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

	all := !*summary && !*fig6 && !*fig7 && !*timing

	var res *experiments.CorpusResult
	if all || *summary || *fig6 || *fig7 {
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

	if *csvPath != "" && res != nil {
		if err := os.WriteFile(*csvPath, []byte(res.CSV()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(exitError)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
		}
	}

	if *failuresJSON != "" && res != nil {
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
		tr, err := experiments.Timing("ide_tape", *rounds)
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
