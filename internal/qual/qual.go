// Package qual is the flow-sensitive type-qualifier client of the
// experiment in Section 7: it tracks the locked/unlocked state of
// every lock's abstract location through each driver module and
// counts the syntactic spin_lock/spin_unlock sites whose precondition
// cannot be verified — the paper's "type errors".
//
// The analysis follows the CQUAL design the paper builds on [15]:
//
//   - state is a map from abstract locations to a four-point lattice
//     ⊥ ⊑ {Locked, Unlocked} ⊑ ⊤;
//   - spin_lock(e) requires the target location to be Unlocked and
//     sets it Locked; spin_unlock dually. A failed precondition marks
//     the syntactic site as a type error (counted once no matter how
//     many paths reach it);
//   - a STRONG update replaces the location's state; it is permitted
//     when the location is linear — a single concrete cell. A WEAK
//     update joins old and new states, which is what degrades
//     information for array elements and other summarized storage
//     (the paper's Figure 1 story);
//   - a restrict/confine scope copies the outer location's state onto
//     the fresh ρ′ at entry (one cell, hence strongly updatable
//     inside) and joins it back at exit;
//   - calls are analyzed by inlining to a bounded depth with cycle
//     detection; on a cycle the callee's latent effect havocs the
//     locations it writes.
//
// Three modes reproduce the experiment's three columns: NoConfine
// (plain linearity), WithBindings (confine/restrict scopes honored),
// and AllStrong (every update strong — the upper bound on what
// strong-update recovery can achieve).
package qual

import (
	"fmt"
	"sort"

	"localalias/internal/ast"
	"localalias/internal/effects"
	"localalias/internal/infer"
	"localalias/internal/locs"
	"localalias/internal/solve"
	"localalias/internal/source"
	"localalias/internal/types"
)

// Mode selects the update policy.
type Mode int

// The analysis modes.
const (
	// ModePlain performs strong updates only on linear locations and
	// honors restrict/confine bindings present in the program.
	ModePlain Mode = iota
	// ModeAllStrong performs every update strongly: the upper bound
	// used by the paper to bound how many errors strong updates could
	// ever eliminate.
	ModeAllStrong
)

func (m Mode) String() string {
	if m == ModeAllStrong {
		return "all-strong"
	}
	return "plain"
}

// State is the lock lattice.
type State uint8

// The lattice points.
const (
	Bot State = iota
	Unlocked
	Locked
	Top
)

func (s State) String() string {
	switch s {
	case Bot:
		return "⊥"
	case Unlocked:
		return "unlocked"
	case Locked:
		return "locked"
	default:
		return "⊤"
	}
}

// Join is the lattice join.
func Join(a, b State) State {
	if a == b {
		return a
	}
	if a == Bot {
		return b
	}
	if b == Bot {
		return a
	}
	return Top
}

// SiteError is one unverifiable lock-operation site.
type SiteError struct {
	Call *ast.CallExpr
	Site source.Span
	// Op is "spin_lock" or "spin_unlock"; Want the required state;
	// Got the state observed on some path.
	Op   string
	Want State
	Got  State
}

func (e SiteError) String() string {
	return fmt.Sprintf("%s: lock may be %s (must be %s)", e.Op, e.Got, e.Want)
}

// Report is the outcome of analyzing one module.
type Report struct {
	Mode Mode
	// Errors lists the failing syntactic sites in source order.
	Errors []SiteError
	// NumSites is the total number of syntactic lock-op sites.
	NumSites int
}

// NumErrors returns the paper's per-module "type errors" count.
func (r *Report) NumErrors() int { return len(r.Errors) }

// maxInlineDepth bounds call inlining (driver modules are shallow;
// the bound only guards against pathological recursion).
const maxInlineDepth = 64

// Analyze runs the locking analysis over the module captured by res.
// sol is the least solution of res.Sys (used to havoc on recursion
// cut-offs); it may be nil, in which case recursion havocs nothing.
// Qualified calls into imported modules havoc their argument targets;
// use AnalyzeWith to apply cross-module summaries instead.
func Analyze(res *infer.Result, sol *solve.Result, mode Mode) *Report {
	return AnalyzeWith(res, sol, mode, nil)
}

func (a *analyzer) report() *Report {
	rep := &Report{Mode: a.mode, NumSites: a.res.TInfo.LockSites, Errors: a.failed}
	sort.Slice(rep.Errors, func(i, j int) bool {
		return rep.Errors[i].Site.Start < rep.Errors[j].Site.Start
	})
	return rep
}

// roots returns the functions not called from within the module, in
// declaration order; if every function is called (cycles), all
// functions are roots. The check recorded which signatures a call
// resolves to (types.FunSig.Called).
func roots(res *infer.Result) []*ast.FunDecl {
	var out []*ast.FunDecl
	for _, f := range res.Prog.Funs {
		if sig := res.TInfo.Funs[f.Name]; sig == nil || !sig.Called {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		out = res.Prog.Funs
	}
	return out
}

// store maps canonical locations to lattice states. Absent entries
// are Unlocked (all locks start unlocked). A nil store means the
// program point is unreachable.
type store map[locs.Loc]State

func (s store) clone() store {
	if s == nil {
		return nil
	}
	c := make(store, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s store) get(l locs.Loc) State {
	if v, ok := s[l]; ok {
		return v
	}
	return Unlocked
}

// joinStores joins two (possibly unreachable) stores.
func joinStores(a, b store) store {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make(store, len(a)+len(b))
	for k, v := range a {
		out[k] = Join(v, b.get(k))
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			out[k] = Join(v, a.get(k))
		}
	}
	return out
}

func equalStores(a, b store) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for k, v := range a {
		if b.get(k) != v {
			return false
		}
	}
	for k, v := range b {
		if a.get(k) != v {
			return false
		}
	}
	return true
}

type analyzer struct {
	res  *infer.Result
	sol  *solve.Result
	mode Mode
	// failed lists the failing sites in the order they were found,
	// each once; failedAt marks their calls by NodeID.
	failed   []SiteError
	failedAt []bool

	// sums are the import summaries (nil: havoc imported calls).
	sums Transfers
	// weak forces weak updates on the listed locations regardless of
	// linearity. Transfer probes use it for formals whose caller-side
	// targets may be summarized storage (see transfer.go).
	weak map[locs.Loc]bool
	// watch, when non-nil, marks the locations whose lock-op failures
	// are attributable to the probed formal; watchErrs counts them.
	// Scope entry propagates watchedness from ρ to ρ′.
	watch     map[locs.Loc]bool
	watchErrs int
}

func (a *analyzer) strongOK(l locs.Loc) bool {
	if a.mode == ModeAllStrong {
		return true
	}
	if a.weak != nil && a.weak[l] {
		return false
	}
	return a.res.Locs.Linear(l)
}

// enterBinding models restrict/confine scope entry: the fresh ρ′
// receives a copy of ρ's state. It enters nothing for a nil binding, a
// failed candidate, or an unreachable point.
func (a *analyzer) enterBinding(b *infer.Binding, sigma store) (rho, rhoP locs.Loc, ok bool) {
	if b == nil || sigma == nil || !b.Explicit && !a.res.Succeeded(b) {
		return 0, 0, false
	}
	rho = a.res.Locs.Find(b.Rho)
	rhoP = a.res.Locs.Find(b.RhoP)
	if rho == rhoP {
		return 0, 0, false
	}
	sigma[rhoP] = sigma.get(rho)
	if a.watch != nil && a.watch[rho] {
		a.watch[rhoP] = true
	}
	return rho, rhoP, true
}

// scope analyzes body as the scope of the binder or confine n, from
// sigma, which already holds the effects of n's initializer or
// confined expression; a restrict/confine binding of n is entered
// first and exited on every way out of body.
func (a *analyzer) scope(n ast.Numbered, body []ast.Stmt, sigma store, stack []string) (store, store) {
	rho, rhoP, ok := a.enterBinding(a.res.BindingOf(n), sigma)
	out, rets := a.stmts(body, sigma, stack)
	if ok {
		a.exitBinding(rho, rhoP, out)
		// Returned-through states also carry ρ′; fold it back there too.
		a.exitBinding(rho, rhoP, rets)
	}
	return out, rets
}

// exitBinding models scope exit: ρ receives ρ′'s final state,
// strongly when ρ is linear and weakly (joined) otherwise; ρ′ dies.
func (a *analyzer) exitBinding(rho, rhoP locs.Loc, sigma store) {
	if sigma == nil {
		return
	}
	final := sigma.get(rhoP)
	if a.strongOK(rho) {
		sigma[rho] = final
	} else {
		sigma[rho] = Join(sigma.get(rho), final)
	}
	delete(sigma, rhoP)
}

// fun analyzes a function body under sigma, returning the join of the
// fall-through and all return states. stack carries the inline chain.
func (a *analyzer) fun(f *ast.FunDecl, sigma store, stack []string) store {
	for _, s := range stack {
		if s == f.Name {
			// Recursion: havoc the locations the callee writes.
			a.havoc(f.Name, sigma)
			return sigma
		}
	}
	if len(stack) >= maxInlineDepth {
		a.havoc(f.Name, sigma)
		return sigma
	}
	stack = append(stack, f.Name)

	// Parameter restrict bindings.
	type opened struct{ rho, rhoP locs.Loc }
	var open []opened
	for _, p := range f.Params {
		if rho, rhoP, ok := a.enterBinding(a.res.BindingOf(p), sigma); ok {
			open = append(open, opened{rho, rhoP})
		}
	}
	out, rets := a.stmts(f.Body.Stmts, sigma, stack)
	out = joinStores(out, rets)
	for i := len(open) - 1; i >= 0; i-- {
		a.exitBinding(open[i].rho, open[i].rhoP, out)
	}
	return out
}

// havoc sets every location the named function writes (per its latent
// effect) to ⊤.
func (a *analyzer) havoc(fn string, sigma store) {
	if sigma == nil || a.sol == nil {
		return
	}
	eff, ok := a.res.FunEff[fn]
	if !ok {
		return
	}
	// EachAtom may repeat a canonical atom; writing Top twice is
	// harmless, and skipping the dedup+sort of Atoms keeps recursive
	// havoc allocation-free.
	a.sol.EachAtom(eff, func(at effects.Atom) {
		if at.Kind == effects.Write {
			sigma[at.Loc] = Top
		}
	})
}

// stmts analyzes a statement list, returning (fallthrough state,
// joined return states). A nil fallthrough means the tail is
// unreachable.
func (a *analyzer) stmts(list []ast.Stmt, sigma store, stack []string) (store, store) {
	var rets store
	for i, s := range list {
		if sigma == nil {
			return nil, rets
		}
		switch s := s.(type) {
		case *ast.DeclStmt:
			// The remainder of the block is the binder's scope.
			sigma = a.expr(s.Init, sigma, stack)
			out, r2 := a.scope(s, list[i+1:], sigma, stack)
			return out, joinStores(rets, r2)
		case *ast.ReturnStmt:
			if s.X != nil {
				sigma = a.expr(s.X, sigma, stack)
			}
			rets = joinStores(rets, sigma)
			return nil, rets
		default:
			var r2 store
			sigma, r2 = a.stmt(s, sigma, stack)
			rets = joinStores(rets, r2)
		}
	}
	return sigma, rets
}

// stmt analyzes one statement, returning (fallthrough, returns).
func (a *analyzer) stmt(s ast.Stmt, sigma store, stack []string) (store, store) {
	switch s := s.(type) {
	case *ast.BindStmt:
		return a.scope(s, s.Body.Stmts, a.expr(s.Init, sigma, stack), stack)

	case *ast.ConfineStmt:
		return a.scope(s, s.Body.Stmts, a.expr(s.Expr, sigma, stack), stack)

	case *ast.AssignStmt:
		sigma = a.expr(s.LHS, sigma, stack)
		sigma = a.expr(s.RHS, sigma, stack)
		return sigma, nil

	case *ast.ExprStmt:
		return a.expr(s.X, sigma, stack), nil

	case *ast.IfStmt:
		sigma = a.expr(s.Cond, sigma, stack)
		thenOut, thenRets := a.stmts(s.Then.Stmts, sigma.clone(), stack)
		elseIn := sigma
		var elseOut, elseRets store
		if s.Else != nil {
			elseOut, elseRets = a.stmts(s.Else.Stmts, elseIn, stack)
		} else {
			elseOut = elseIn
		}
		return joinStores(thenOut, elseOut), joinStores(thenRets, elseRets)

	case *ast.WhileStmt:
		// Fixpoint over the loop body.
		cur := sigma
		var rets store
		for iter := 0; ; iter++ {
			condSt := a.expr(s.Cond, cur.clone(), stack)
			bodyOut, bodyRets := a.stmts(s.Body.Stmts, condSt, stack)
			rets = joinStores(rets, bodyRets)
			next := joinStores(cur, bodyOut)
			if equalStores(next, cur) || iter > 8 {
				cur = next
				break
			}
			cur = next
		}
		// Executing the condition once more on exit.
		cur = a.expr(s.Cond, cur, stack)
		return cur, rets

	case *ast.Block:
		return a.stmts(s.Stmts, sigma, stack)

	default:
		return sigma, nil
	}
}

// expr analyzes an expression for lock operations and calls.
func (a *analyzer) expr(e ast.Expr, sigma store, stack []string) store {
	if sigma == nil || e == nil {
		return sigma
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		for _, arg := range e.Args {
			sigma = a.expr(arg, sigma, stack)
		}
		if types.IsLockOp(e.Fun) && len(e.Args) == 1 {
			return a.lockOp(e, sigma)
		}
		if f := a.res.Prog.Fun(e.Fun); f != nil {
			return a.fun(f, sigma, stack)
		}
		if _, _, ok := ast.SplitQualified(e.Fun); ok {
			return a.importedCall(e, sigma)
		}
		return sigma
	case *ast.BinExpr:
		sigma = a.expr(e.X, sigma, stack)
		return a.expr(e.Y, sigma, stack)
	case *ast.UnExpr:
		return a.expr(e.X, sigma, stack)
	case *ast.NewExpr:
		return a.expr(e.Init, sigma, stack)
	case *ast.DerefExpr:
		return a.expr(e.X, sigma, stack)
	case *ast.AddrExpr:
		return a.expr(e.X, sigma, stack)
	case *ast.IndexExpr:
		sigma = a.expr(e.X, sigma, stack)
		return a.expr(e.Index, sigma, stack)
	case *ast.FieldExpr:
		return a.expr(e.X, sigma, stack)
	default:
		return sigma
	}
}

// fail records e unless its call already failed.
func (a *analyzer) fail(e SiteError) {
	if a.failedAt == nil {
		a.failedAt = make([]bool, a.res.Prog.NumNodes)
	}
	if a.failedAt[e.Call.ID] {
		return
	}
	a.failedAt[e.Call.ID] = true
	a.failed = append(a.failed, e)
}

// lockOp checks and applies one spin_lock/spin_unlock site.
func (a *analyzer) lockOp(call *ast.CallExpr, sigma store) store {
	target, ok := a.res.TargetOf(call.Args[0])
	if !ok {
		return sigma
	}
	target = a.res.Locs.Find(target)
	op, _ := types.LookupChangeOp(call.Fun)
	want, next := Unlocked, Locked
	if !op.Acquire {
		want, next = Locked, Unlocked
	}
	got := sigma.get(target)
	if got != want {
		a.fail(SiteError{Call: call, Site: call.Sp, Op: call.Fun, Want: want, Got: got})
		if a.watch != nil && a.watch[target] {
			a.watchErrs++
		}
	}
	if a.strongOK(target) {
		sigma[target] = next
	} else {
		sigma[target] = Join(got, next)
	}
	return sigma
}
