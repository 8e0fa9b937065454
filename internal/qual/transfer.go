package qual

// Cross-module transfer summaries.
//
// An exported function's observable locking behavior, seen from a
// caller in another module, is a transfer table per ref-lock formal:
// for each entry state of the formal's target, the state it holds on
// exit and whether entering with that state makes some lock-op site
// inside the callee fail. The table is computed by probing — running
// the module's own analyzer over the function once per lattice point
// with the formal's location as the only non-default store entry — so
// it is exact with respect to this module's analysis, including the
// restrict/confine scopes the callee's annotations establish.
//
// Soundness at the boundary: the probe may not assume the formal's
// target is linear. Inside a single module the alias analysis would
// unify the formal with the caller's argument and discover
// multiplicity; across modules that unification never happens. The
// probe therefore forces WEAK updates on every formal's outer
// location (see analyzer.weak) unless the formal is restrict — a
// restrict annotation is precisely the callee's checked license to
// treat its copy ρ′ as linear, and is what makes summaries precise.

import (
	"localalias/internal/ast"
	"localalias/internal/infer"
	"localalias/internal/locs"
	"localalias/internal/solve"
	"localalias/internal/types"
)

// TransferEntry is one row of a formal's transfer table: the exit
// state of the formal's target, and whether entering the callee with
// the row's input state makes a lock-op site attributable to that
// target fail.
type TransferEntry struct {
	Out State `json:"out"`
	Err bool  `json:"err,omitempty"`
}

// ParamTransfer is one formal's transfer table over the four lattice
// points, indexed by entry State.
type ParamTransfer struct {
	// Param is the formal's index in the callee's signature.
	Param int              `json:"param"`
	Table [4]TransferEntry `json:"table"`
}

// Transfers maps qualified or exported function names to their
// per-formal transfer tables. A present entry — even an empty one,
// for functions without ref-lock formals — means the callee's
// behavior is known; absence means havoc.
type Transfers map[string][]ParamTransfer

// AnalyzeWith is Analyze with cross-module summaries: qualified calls
// pkg.fn(...) whose name appears in sums apply the callee's transfer
// tables to the argument targets; absent callees (and calls passing
// aliased ref arguments, which the callee's probe could not have
// anticipated) havoc their argument targets to ⊤.
func AnalyzeWith(res *infer.Result, sol *solve.Result, mode Mode, sums Transfers) *Report {
	a := &analyzer{
		res:  res,
		sol:  sol,
		mode: mode,
		sums: sums,
	}
	for _, f := range roots(res) {
		sigma := store{}
		a.fun(f, sigma, nil)
	}
	return a.report()
}

// ComputeTransfers computes the transfer tables of every exported
// (exportable, declared) function of the module analyzed by res,
// under the given mode. sums supplies this module's own import
// summaries so probes compose up the dependency DAG. Functions whose
// formals cannot be located are omitted, forcing havoc at their call
// sites.
func ComputeTransfers(res *infer.Result, sol *solve.Result, mode Mode, sums Transfers) Transfers {
	out := make(Transfers)
	for _, f := range res.Prog.Funs {
		sig := res.TInfo.Funs[f.Name]
		if sig == nil || sig.Decl != f || !types.Exportable(sig) {
			continue
		}
		tables, ok := transfersOf(res, sol, mode, sums, f, sig)
		if ok {
			out[f.Name] = tables
		}
	}
	return out
}

func transfersOf(res *infer.Result, sol *solve.Result, mode Mode, sums Transfers,
	f *ast.FunDecl, sig *types.FunSig) ([]ParamTransfer, bool) {
	// Locate every ref-lock formal's outer location; force weak
	// updates on all of them during probes (callers' targets may be
	// summarized storage).
	type formal struct {
		idx int
		rho locs.Loc
	}
	var formals []formal
	weak := make(map[locs.Loc]bool)
	for i, pt := range sig.Params {
		r, isRef := pt.(*types.Ref)
		if !isRef || !types.IsLock(r.Elem) {
			continue
		}
		rho := formalRho(res, f.Params[i])
		if rho == locs.NoLoc {
			return nil, false
		}
		formals = append(formals, formal{i, rho})
		weak[rho] = true
	}
	tables := []ParamTransfer{}
	for _, fm := range formals {
		pt := ParamTransfer{Param: fm.idx}
		for s := Bot; s <= Top; s++ {
			a := &analyzer{
				res:   res,
				sol:   sol,
				mode:  mode,
				sums:  sums,
				weak:  weak,
				watch: map[locs.Loc]bool{fm.rho: true},
			}
			out := a.fun(f, store{fm.rho: s}, nil)
			ent := TransferEntry{Out: Top, Err: a.watchErrs > 0}
			if out != nil {
				ent.Out = out.get(fm.rho)
			}
			pt.Table[s] = ent
		}
		tables = append(tables, pt)
	}
	return tables, true
}

// formalRho returns the canonical outer location of a ref formal: the
// ρ of its restrict binding when one exists, else its placeholder
// cell.
func formalRho(res *infer.Result, p *ast.Param) locs.Loc {
	if b := res.BindingOf(p); b != nil {
		return res.Locs.Find(b.Rho)
	}
	sym := res.TInfo.BinderOf(p)
	if sym == nil {
		return locs.NoLoc
	}
	if lt := res.SymLTypes[sym]; lt != nil && lt.Kind() == infer.LRef {
		return res.Locs.Find(lt.Cell())
	}
	return locs.NoLoc
}

// importedCall applies the callee's transfer tables to the call's
// argument targets, or havocs them to ⊤ when the callee is unknown
// (no summary — missing package, cyclic dependency, or a
// havoc-baseline run) or the ref arguments alias each other.
func (a *analyzer) importedCall(e *ast.CallExpr, sigma store) store {
	type refArg struct {
		idx    int
		target locs.Loc
	}
	var refs []refArg
	aliased := false
	seen := make(map[locs.Loc]bool)
	for i, arg := range e.Args {
		if t, ok := a.res.TargetOf(arg); ok {
			t = a.res.Locs.Find(t)
			if seen[t] {
				aliased = true
			}
			seen[t] = true
			refs = append(refs, refArg{i, t})
		}
	}
	var sum []ParamTransfer
	known := false
	if a.sums != nil {
		sum, known = a.sums[e.Fun]
	}
	if !known || aliased {
		for _, r := range refs {
			sigma[r.target] = Top
		}
		return sigma
	}
	for _, pt := range sum {
		for _, r := range refs {
			if r.idx != pt.Param {
				continue
			}
			in := sigma.get(r.target)
			ent := pt.Table[in]
			if ent.Err {
				a.fail(SiteError{Call: e, Site: e.Sp, Op: e.Fun, Want: wantOf(pt), Got: in})
				if a.watch != nil && a.watch[r.target] {
					a.watchErrs++
				}
			}
			if a.strongOK(r.target) {
				sigma[r.target] = ent.Out
			} else {
				sigma[r.target] = Join(in, ent.Out)
			}
		}
	}
	return sigma
}

// wantOf picks the entry state to report as "required" in a summary
// violation: the first definite state the table accepts.
func wantOf(pt ParamTransfer) State {
	for _, s := range [...]State{Unlocked, Locked} {
		if !pt.Table[s].Err {
			return s
		}
	}
	return Unlocked
}
