// Package core is the public facade of the local non-aliasing
// toolkit: it wires the pipeline of the paper end to end —
//
//	parse → standard types → alias-and-effect inference →
//	restrict/confine checking or inference → flow-sensitive
//	locked/unlocked qualifier analysis
//
// — and exposes the three-mode locking experiment of Section 7
// (no-confine / confine-inference / all-updates-strong).
package core

import (
	"context"
	"fmt"
	"time"

	"localalias/internal/ast"
	"localalias/internal/confine"
	"localalias/internal/effects"
	"localalias/internal/faults"
	"localalias/internal/infer"
	"localalias/internal/locs"
	"localalias/internal/obs"
	"localalias/internal/parser"
	"localalias/internal/qual"
	"localalias/internal/restrict"
	"localalias/internal/solve"
	"localalias/internal/source"
	"localalias/internal/types"
)

// ModuleFailure is the structured record of one module's contained
// failure (panic, timeout, or analysis error), re-exported so
// pipeline drivers can speak in terms of core alone. See package
// faults for the containment guards that produce it.
type ModuleFailure = faults.ModuleFailure

// Module is a parsed and standard-type-checked compilation unit.
type Module struct {
	Name  string
	Prog  *ast.Program
	TInfo *types.Info
	Diags *source.Diagnostics
}

// LoadModule parses and type checks src. It fails on lexical,
// syntactic or standard type errors.
func LoadModule(name, src string) (*Module, error) {
	return LoadModuleTraced(name, src, nil)
}

// LoadModuleTraced is LoadModule with phase tracking: tr (when
// non-nil) records the parse and typecheck phases so a fault inside
// either is attributed correctly.
//
// On failure the returned module is still non-nil: it carries the
// name and the positioned diagnostics accumulated before the failing
// phase (Prog and TInfo may be nil), so callers can render excerpts
// or ship the diagnostics over the service API instead of losing them
// to a bare error string.
func LoadModuleTraced(name, src string, tr *faults.Trace) (*Module, error) {
	m := &Module{Name: name, Diags: &source.Diagnostics{}}
	tr.Enter(obs.PhaseParse)
	m.Prog = parser.Parse(name, src, m.Diags)
	if m.Diags.HasErrors() {
		return m, fmt.Errorf("%s: %w", name, m.Diags.Err())
	}
	return m, m.Check(nil, tr)
}

// Check type checks the module's parsed program into m.TInfo, under
// the typecheck phase of tr (when non-nil). sigs supplies the
// exported signatures of separately-loaded modules: import
// declarations naming packages absent from sigs fail with positioned
// "package not found" diagnostics. It fails on standard type errors.
func (m *Module) Check(sigs types.ImportSigs, tr *faults.Trace) error {
	tr.Enter(obs.PhaseTypecheck)
	m.TInfo = types.CheckWith(m.Prog, m.Diags, sigs)
	if m.Diags.HasErrors() {
		return fmt.Errorf("%s: %w", m.Name, m.Diags.Err())
	}
	return nil
}

// CheckAnnotations verifies the module's explicit restrict/confine
// annotations (Sections 4 and 6.1). The result's Violations are also
// appended to m.Diags.
func (m *Module) CheckAnnotations() *restrict.CheckResult {
	return restrict.Check(m.TInfo, m.Diags)
}

// InferRestrict runs restrict inference (Section 5), marking
// successful lets in the AST.
func (m *Module) InferRestrict(params bool) *restrict.InferResult {
	return m.InferRestrictWith(restrict.Options{Params: params})
}

// InferRestrictWith is InferRestrict with full options (parameter
// candidates).
func (m *Module) InferRestrictWith(opts restrict.Options) *restrict.InferResult {
	return restrict.Infer(m.TInfo, m.Diags, opts)
}

// LockingOptions configures the three-mode locking experiment.
type LockingOptions struct {
	// ImportEffects supplies per-formal effect masks for imported
	// functions ("pkg.fn"), applied at the solver level; nil havocs
	// every imported call's arguments.
	ImportEffects map[string][]effects.Mask
	// ImportTransfers supplies per-variant qualifier transfer tables
	// for imported functions; nil havocs imported calls in the
	// qualifier analysis (the single-module baseline).
	ImportTransfers [NumVariants]qual.Transfers
	// ExportAPI requests computation of the module's own package
	// summary (LockingResult.API) for downstream modules.
	ExportAPI bool
}

// The experiment variants a cross-module summary is computed under,
// mirroring the three analysis runs of AnalyzeLocking. Callers apply
// the variant matching their own run.
const (
	VariantNoConfine = iota
	VariantWithConfine
	VariantAllStrong
	NumVariants
)

// PackageAPI is everything a downstream module needs to analyze
// against this module without re-analyzing its source: the
// per-variant qualifier transfer tables and the per-formal effect
// masks. Importers take the exported signatures from the type
// checker (types.Info.Exports).
type PackageAPI struct {
	// Transfers holds each exported function's transfer tables per
	// experiment variant, keyed by unqualified function name.
	Transfers [NumVariants]qual.Transfers
	// Effects holds each exported function's per-formal effect masks.
	Effects map[string][]effects.Mask
}

// LockingResult carries the three reports of the Section 7
// experiment for one module.
type LockingResult struct {
	Module *Module

	// NoConfine is the baseline: weak updates wherever aliasing
	// demands them.
	NoConfine *qual.Report
	// WithConfine is the analysis after confine inference.
	WithConfine *qual.Report
	// AllStrong assumes every update is strong: the upper bound on
	// what strong-update recovery can eliminate.
	AllStrong *qual.Report

	// Confine is the inference run that produced WithConfine. Its
	// Solution is released before AnalyzeLocking returns.
	Confine *confine.Result

	// SolveStats aggregates the constraint-solver work counters over
	// both solves (the baseline solve shared by the no-confine and
	// all-strong modes, and the confine-inference solve).
	SolveStats solve.Stats

	// BaselineTime is the wall time of the baseline run: inference,
	// solve and the no-confine walk. ConfineTime is the wall time of
	// the confine run: confine inference over the baseline run and the
	// with-confine walk. Neither covers the all-strong walk or the
	// package summary. Together they are the paper's E4 comparison.
	BaselineTime, ConfineTime time.Duration

	// API is the module's package summary for downstream modules,
	// computed when LockingOptions.ExportAPI is set.
	API *PackageAPI
}

// Potential returns the number of spurious errors that strong
// updates could eliminate (noConfine − allStrong).
func (r *LockingResult) Potential() int {
	return r.NoConfine.NumErrors() - r.AllStrong.NumErrors()
}

// Eliminated returns the number of errors confine inference actually
// eliminated (noConfine − withConfine).
func (r *LockingResult) Eliminated() int {
	return r.NoConfine.NumErrors() - r.WithConfine.NumErrors()
}

// AnalyzeLocking runs the three analysis modes of the experiment.
// The module's AST is rewritten in place by confine inference (the
// baseline and all-strong modes run first, on the pristine tree).
func (m *Module) AnalyzeLocking(opts LockingOptions) (*LockingResult, error) {
	return m.AnalyzeLockingCtx(nil, opts, nil)
}

// AnalyzeLockingCtx is AnalyzeLocking under fault-containment
// plumbing: ctx (when non-nil) bounds the constraint solves so a
// per-module deadline can abort a pathological system cooperatively,
// and tr (when non-nil) records which phase is executing so a panic
// or timeout is attributed to infer/solve/qual rather than to the
// whole module. Internal inconsistencies (unification mismatches)
// become positioned diagnostics on m.Diags and an error — never a
// panic. Both solutions it makes are released before it returns: the
// reports and the package summary hold all a caller reads.
func (m *Module) AnalyzeLockingCtx(ctx context.Context, opts LockingOptions, tr *faults.Trace) (*LockingResult, error) {
	out := &LockingResult{Module: m}

	// Baseline and upper bound on the pristine AST.
	start := time.Now()
	tr.Enter(obs.PhaseInfer)
	baseInfer := infer.Run(m.TInfo, m.Diags, infer.Options{
		ImportEffects: opts.ImportEffects,
	})
	if baseInfer.InternalErrors > 0 {
		return nil, fmt.Errorf("%s: %w", m.Name, m.Diags.Err())
	}
	tr.Enter(obs.PhaseSolve)
	baseSol := solve.SolveCtx(ctx, baseInfer.Sys)
	tr.Enter(obs.PhaseQual)
	out.NoConfine = qual.AnalyzeWith(baseInfer, baseSol, qual.ModePlain,
		opts.ImportTransfers[VariantNoConfine])
	out.BaselineTime = time.Since(start)
	out.AllStrong = qual.AnalyzeWith(baseInfer, baseSol, qual.ModeAllStrong,
		opts.ImportTransfers[VariantAllStrong])

	if opts.ExportAPI {
		out.API = exportBaseAPI(m, baseInfer, baseSol, opts)
	}

	// The baseline run is done: its solution's pooled arena serves the
	// confine solve, and its inference tables the confine run.
	out.SolveStats.Add(baseSol.Stats)
	releaseSolution(baseSol)

	// Confine inference (mutates the AST and extends m.TInfo to
	// match), then the qualifier analysis over the surviving bindings.
	start = time.Now()
	cres, err := confine.InferAndApplyOver(baseInfer, m.Prog, m.Diags, confine.Options{
		Params:        true,
		Lets:          true,
		Ctx:           ctx,
		Trace:         tr,
		Info:          m.TInfo,
		ImportEffects: opts.ImportEffects,
	})
	if err != nil {
		return nil, err
	}
	out.Confine = cres
	tr.Enter(obs.PhaseQual)
	out.WithConfine = qual.AnalyzeWith(cres.Infer, cres.Solution, qual.ModePlain,
		opts.ImportTransfers[VariantWithConfine])
	out.ConfineTime = time.Since(start)
	out.SolveStats.Add(cres.Solution.Stats)
	if opts.ExportAPI {
		out.API.Transfers[VariantWithConfine] = qual.ComputeTransfers(
			cres.Infer, cres.Solution, qual.ModePlain, opts.ImportTransfers[VariantWithConfine])
	}
	releaseSolution(cres.Solution)
	return out, nil
}

// releaseSolution releases a solution AnalyzeLockingCtx is done
// with; tests replace it to see which solutions are released.
var releaseSolution = (*solve.Result).Release

// exportBaseAPI computes the part of the module's package summary
// that the baseline run determines, before that run is released:
// effect masks from the baseline solve's latent effects
// (restricted to the cells each formal exposes), and the no-confine
// and all-strong transfer tables. Transfer tables are probed under
// exactly the (inference result, solution, mode) triples the
// experiment's columns use, so a caller applying variant V sees the
// callee as variant V analyzed it; AnalyzeLockingCtx adds the
// with-confine table after the confine run.
func exportBaseAPI(m *Module, baseInfer *infer.Result, baseSol *solve.Result, opts LockingOptions) *PackageAPI {
	api := &PackageAPI{Effects: make(map[string][]effects.Mask)}
	api.Transfers[VariantNoConfine] = qual.ComputeTransfers(
		baseInfer, baseSol, qual.ModePlain, opts.ImportTransfers[VariantNoConfine])
	api.Transfers[VariantAllStrong] = qual.ComputeTransfers(
		baseInfer, baseSol, qual.ModeAllStrong, opts.ImportTransfers[VariantAllStrong])
	for name, sig := range m.TInfo.Exports(m.Name).Funs {
		api.Effects[name] = effectMasks(baseInfer, baseSol, sig)
	}
	return api
}

// effectMasks computes one read/write/alloc mask per formal of sig:
// the kinds the function's solved latent effect contains on locations
// reachable from that formal.
func effectMasks(res *infer.Result, sol *solve.Result, sig *types.FunSig) []effects.Mask {
	masks := make([]effects.Mask, len(sig.Params))
	eff, ok := res.FunEff[sig.Name]
	if !ok || sol == nil {
		for i := range masks {
			masks[i] = effects.HavocMask
		}
		return masks
	}
	cells := make([]map[locs.Loc]bool, len(sig.Params))
	for i := range sig.Params {
		cells[i] = make(map[locs.Loc]bool)
		for _, c := range res.ParamCells(sig.Decl, i) {
			cells[i][c] = true
		}
	}
	sol.EachAtom(eff, func(at effects.Atom) {
		if at.Kind == effects.LocAtom {
			return
		}
		l := res.Locs.Find(at.Loc)
		for i := range cells {
			if cells[i][l] {
				masks[i] |= at.Kind.Bit()
			}
		}
	})
	return masks
}
