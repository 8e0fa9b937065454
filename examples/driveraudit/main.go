// driveraudit batch-audits a slice of the synthetic driver corpus —
// one module from each category plus every Figure 7 module — and
// prints a per-module report in the style of the paper's Section 7.
//
// Run with: go run ./examples/driveraudit
package main

import (
	"context"
	"fmt"

	"localalias/internal/drivergen"
	"localalias/internal/experiments"
)

func main() {
	corpus := drivergen.Corpus()
	byName := map[string]*drivergen.ModuleSpec{}
	for _, m := range corpus {
		byName[m.Name] = m
	}

	var picks []*drivergen.ModuleSpec
	picks = append(picks,
		byName["clean_000"],
		byName["buggy_000"],
		byName["driver_000"],
		byName["driver_137"],
	)
	for _, row := range drivergen.Figure7Paper() {
		picks = append(picks, byName[row.Name])
	}

	res := experiments.RunCorpus(context.Background(), experiments.CorpusOptions{Specs: picks})
	fmt.Printf("%-16s %-14s %8s %8s %8s %9s %6s\n",
		"module", "category", "no-inf", "confine", "strong", "eliminated", "kept")
	for _, m := range res.Modules {
		if m.Failure != nil {
			fmt.Printf("%-16s ERROR: %v\n", m.Spec.Name, m.Failure)
			continue
		}
		fmt.Printf("%-16s %-14s %8d %8d %8d %9d %6d\n",
			m.Spec.Name, m.Spec.Category,
			m.Measured.NoConfine, m.Measured.Confine, m.Measured.AllStrong,
			m.Eliminated(), m.Response.Locking.Kept)
	}
	fmt.Printf("\naggregate over this sample: eliminated %d of %d potential spurious errors\n",
		res.Eliminated, res.Potential)
	fmt.Println("\n(run cmd/experiments for the full 589-module reproduction)")
}
