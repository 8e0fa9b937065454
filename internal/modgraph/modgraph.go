// Package modgraph links separately-parsed MiniC modules into a whole
// program. It builds the module dependency DAG from import
// declarations, condenses it (cycle members are rejected with
// positioned diagnostics, Go-style), and runs a sequential
// bottom-up pass over the condensation: each module is analyzed after
// its dependencies, receiving their exported signatures and package
// summaries — qualifier transfer tables per experiment variant, and
// per-formal effect masks — so call sites into imported functions
// apply the callee's actual behavior instead of worst-case havoc. Only
// a module some other module imports computes a summary.
//
// Each module is parsed once and then runs the same per-module step
// as a single-module request — type check against its dependencies'
// exports, then core.AnalyzeLockingCtx — under the caller's context
// and phase trace.
//
// Failure containment mirrors the corpus driver's: a module that
// fails to parse, type check, or analyze is recorded and skipped, and
// its importers still run — resolving the failed package's surface
// from its parse tree and havocing calls into it. The same fallback
// covers import cycles, so one bad package degrades precision
// downstream instead of failing the program.
package modgraph

import (
	"context"
	"fmt"
	"sort"

	"localalias/internal/core"
	"localalias/internal/faults"
	"localalias/internal/obs"
	"localalias/internal/parser"
	"localalias/internal/source"
)

// Source is one named module's text. The name is the package name
// importers use: `import "name";`.
type Source struct {
	Name string
	Text string
}

// Options configures the whole-program pass.
type Options struct {
	// Workers is ignored: the pass always runs sequentially, in
	// dependency order. It is kept only until the steady-state
	// benchmark stops setting it.
	Workers int
	// Havoc disables summary application: imported calls degrade to
	// worst-case effects, reproducing per-module analysis in
	// isolation. The differential baseline for the summary pass.
	Havoc bool
	// Ctx, when non-nil, bounds the pass: it is checked before each
	// module's parse and analysis, and it bounds each module's
	// solves. A Ctx that can expire needs the pass to run under a
	// faults guard (faults.Run or RunBounded), which turns the abort
	// into a timeout failure. When Ctx carries a span
	// (obs.ContextWithSpan), each analyzed module gets a span
	// (category "modgraph") under it.
	Ctx context.Context
	// Phases, when non-nil, records the pipeline phase the pass is in,
	// accumulating each phase's time over all modules.
	Phases *faults.Trace
}

// ModuleResult is one module's outcome within the program.
type ModuleResult struct {
	Name string
	// Deps are the declared import paths, sorted and deduplicated.
	Deps []string
	// Module carries the parsed AST and diagnostics (nil for a
	// duplicate module name).
	Module *core.Module
	// Locking is the full per-module result (nil on failure). Its API
	// is the package summary published to importers (nil in havoc
	// mode, and for a module no other module imports).
	Locking *core.LockingResult
	// Err is the load or analysis failure, if any.
	Err error
	// Cyclic marks members of an import cycle.
	Cyclic bool
}

// Failed reports whether the module produced no outcome.
func (m *ModuleResult) Failed() bool { return m.Err != nil }

// Result is the whole-program outcome.
type Result struct {
	// Modules holds every input module's result, keyed by name.
	Modules map[string]*ModuleResult
	// Order is the deterministic bottom-up schedule (topological,
	// lexicographic tie-break); cycle members are excluded.
	Order []string
	// Cycles lists each detected import cycle in path order.
	Cycles [][]string
}

// Failures returns the names of failed modules, sorted.
func (r *Result) Failures() []string {
	var out []string
	for name, m := range r.Modules {
		if m.Failed() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// parsed is the pre-analysis view of one module: parsed, not yet
// type checked.
type parsed struct {
	mod  *core.Module
	deps []string // sorted, deduplicated declared imports
}

// Analyze links and analyzes a multi-module program bottom-up over
// its import DAG. Duplicate module names are an error on the later
// occurrence.
func Analyze(sources []Source, opts Options) *Result {
	res := &Result{Modules: make(map[string]*ModuleResult)}

	// Parse every module once: the import graph comes from the parse
	// trees, and each module's analysis type checks the same tree.
	count := make(map[string]int)
	for _, s := range sources {
		count[s.Name]++
	}
	mods := make(map[string]*parsed)
	var names []string
	opts.Phases.Enter(obs.PhaseParse)
	for _, s := range sources {
		if count[s.Name] > 1 {
			// Ambiguous: all occurrences of the name fail (there is
			// no principled way to pick one for importers).
			res.Modules[s.Name] = &ModuleResult{
				Name: s.Name,
				Err:  fmt.Errorf("%s: duplicate module name", s.Name),
			}
			continue
		}
		faults.CheckDeadline(opts.Ctx)
		m := &core.Module{Name: s.Name, Diags: &source.Diagnostics{}}
		m.Prog = parser.Parse(s.Name, s.Text, m.Diags)
		seen := map[string]bool{}
		var deps []string
		for _, im := range m.Prog.Imports {
			if !seen[im.Path] {
				seen[im.Path] = true
				deps = append(deps, im.Path)
			}
		}
		sort.Strings(deps)
		mods[s.Name] = &parsed{mod: m, deps: deps}
		names = append(names, s.Name)
	}
	sort.Strings(names)

	// Condense: reject cycle members with positioned diagnostics.
	cyclic := findCycles(mods, names, res)

	// Deterministic bottom-up order over the acyclic remainder.
	res.Order = topoOrder(mods, names, cyclic)

	r := &runner{mods: mods, opts: opts, res: res, imported: make(map[string]bool)}
	for _, p := range mods {
		for _, d := range p.deps {
			r.imported[d] = true
		}
	}
	for _, name := range res.Order {
		faults.CheckDeadline(opts.Ctx)
		r.analyze(name)
	}
	return res
}

// findCycles detects import cycles (including self-imports), records
// a positioned diagnostic and a failed ModuleResult for each member,
// and returns the member set.
func findCycles(mods map[string]*parsed, names []string, res *Result) map[string]bool {
	cyclic := make(map[string]bool)
	// Iterative DFS with an explicit path for cycle reporting.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int)
	var path []string
	var visit func(string)
	visit = func(n string) {
		color[n] = grey
		path = append(path, n)
		for _, d := range mods[n].deps {
			if mods[d] == nil {
				continue // missing package: reported by typecheck
			}
			switch color[d] {
			case white:
				visit(d)
			case grey:
				// Found a back edge: the cycle is path[i..] for the
				// first i with path[i] == d.
				i := 0
				for path[i] != d {
					i++
				}
				cycle := append(append([]string{}, path[i:]...), d)
				res.Cycles = append(res.Cycles, cycle)
				for _, m := range path[i:] {
					cyclic[m] = true
				}
			}
		}
		path = path[:len(path)-1]
		color[n] = black
	}
	for _, n := range names {
		if color[n] == white {
			visit(n)
		}
	}
	// A member of any cycle fails with a diagnostic at the import
	// declaration that participates in the cycle.
	for _, cycle := range res.Cycles {
		inCycle := make(map[string]bool, len(cycle))
		for _, m := range cycle {
			inCycle[m] = true
		}
		for _, m := range cycle[:len(cycle)-1] {
			pm := mods[m].mod
			for _, im := range pm.Prog.Imports {
				if inCycle[im.Path] {
					pm.Diags.Errorf(pm.Prog.File, im.Sp, "modgraph",
						"import cycle: %s", cycleString(cycle, m))
					break
				}
			}
		}
	}
	for _, n := range names {
		if cyclic[n] {
			p := mods[n]
			res.Modules[n] = &ModuleResult{
				Name:   n,
				Deps:   p.deps,
				Cyclic: true,
				Module: p.mod,
				Err:    fmt.Errorf("%s: import cycle", n),
			}
		}
	}
	return cyclic
}

// cycleString renders a cycle starting from member m: "a -> b -> a".
func cycleString(cycle []string, m string) string {
	// cycle is closed (first == last); rotate so m leads.
	ring := cycle[:len(cycle)-1]
	start := 0
	for i, n := range ring {
		if n == m {
			start = i
			break
		}
	}
	s := ""
	for i := 0; i <= len(ring); i++ {
		if i > 0 {
			s += " -> "
		}
		s += ring[(start+i)%len(ring)]
	}
	return s
}

// topoOrder returns a deterministic bottom-up order (Kahn's algorithm
// with a sorted frontier) over the non-cyclic modules.
func topoOrder(mods map[string]*parsed, names []string, cyclic map[string]bool) []string {
	pending := make(map[string]int)
	dependents := make(map[string][]string)
	for _, n := range names {
		if cyclic[n] {
			continue
		}
		cnt := 0
		for _, d := range mods[n].deps {
			if mods[d] != nil && !cyclic[d] {
				cnt++
				dependents[d] = append(dependents[d], n)
			}
		}
		pending[n] = cnt
	}
	var frontier []string
	for _, n := range names {
		if !cyclic[n] && pending[n] == 0 {
			frontier = append(frontier, n)
		}
	}
	sort.Strings(frontier)
	var order []string
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		order = append(order, n)
		next := dependents[n]
		sort.Strings(next)
		for _, d := range next {
			pending[d]--
			if pending[d] == 0 {
				frontier = append(frontier, d)
				sort.Strings(frontier)
			}
		}
	}
	return order
}
