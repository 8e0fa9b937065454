// Package confine implements confine inference (Section 6 of the
// paper): automatically placing "confine e { ... }" around statement
// ranges so that a flow-sensitive analysis can perform strong updates
// on the location e points to.
//
// The pipeline is the one the paper's Section 7 describes:
//
//  1. Plant confine? candidates. The planter is the paper's
//     syntactic heuristic: for every block, when two or more
//     statements contain change_type calls (spin_lock/spin_unlock)
//     whose arguments match syntactically, wrap the smallest
//     sub-block covering them in a confine? of that argument, and
//     report that the new sub-block contains no change_type. This is
//     the scope inference the paper's implementation uses; the
//     Section 6.2 search over every possible scope is not attempted.
//     A wrap is planted only if it stays well scoped: the clone's
//     identifiers denote, at the wrap point, the symbols of the
//     occurrence it copies, and no let among the wrapped statements
//     is used after them.
//  2. Run alias-and-effect inference with the planted nodes marked
//     optional, and solve. The planted program is not checked again:
//     each clone takes the standard types, place flags and resolved
//     symbols of the occurrence it copies from the module's own check
//     (Options.Info), which well-scopedness makes exactly what a
//     fresh check would compute. Each candidate succeeds iff its ρ
//     and ρ′ remain distinct in the least solution.
//  3. Apply verdicts: failed candidates are spliced back out of the
//     AST; successes are kept (marked Inferred), adjacent successful
//     confines of the same expression are combined per the identity
//     (confine e in s1; confine e in s2) = confine e in {s1; s2},
//     and nested same-expression confines are pruned to the
//     outermost.
package confine

import (
	"context"
	"fmt"

	"localalias/internal/ast"
	"localalias/internal/effects"
	"localalias/internal/faults"
	"localalias/internal/infer"
	"localalias/internal/obs"
	"localalias/internal/solve"
	"localalias/internal/source"
	"localalias/internal/types"
)

// Options configures inference.
type Options struct {
	// Params additionally runs restrict inference over ref-typed
	// parameters. This is how the pipeline recovers strong updates
	// across helper-function boundaries (the paper's Figure 1
	// pattern, where C99 would annotate the parameter itself).
	Params bool
	// Lets additionally runs let-or-restrict inference (Section 5).
	Lets bool
	// Ctx, when non-nil, bounds the constraint solve: the solver
	// checks its deadline cooperatively so a per-module timeout can
	// abort a pathological system (see package faults).
	Ctx context.Context
	// Trace, when non-nil, records phase transitions (typecheck/
	// infer/solve) for fault attribution in corpus runs.
	Trace *faults.Trace
	// Info is the standard checking of prog (the module's own
	// types.CheckWith result). Planting extends it in place with
	// entries for the cloned confine expressions, so afterwards it
	// describes the rewritten program. Nil checks prog first, without
	// imports.
	Info *types.Info
	// ImportEffects supplies per-formal effect masks for imported
	// functions ("pkg.fn"); nil havocs imported calls (see
	// infer.Options.ImportEffects).
	ImportEffects map[string][]effects.Mask
}

// Result reports a confine inference run.
type Result struct {
	TInfo    *types.Info
	Infer    *infer.Result
	Solution *solve.Result
	// Planted is the number of confine? candidates inserted; Kept the
	// candidates that succeeded and remain in the AST; Removed the
	// count spliced back out.
	Planted int
	Kept    []*infer.Candidate
	Removed int
	// Violations report failures of explicit (hand-written)
	// annotations encountered along the way.
	Violations []solve.Violation
}

// InferAndApply plants confine? candidates in prog, solves, and
// rewrites prog in place so that exactly the successful confines
// remain (marked Inferred). It returns the analysis artifacts needed
// by the flow-sensitive qualifier analysis: the rewritten program's
// types.Info, the infer.Result whose maps cover the surviving nodes,
// and the least solution.
func InferAndApply(prog *ast.Program, diags *source.Diagnostics, opts Options) (*Result, error) {
	return InferAndApplyOver(nil, prog, diags, opts)
}

// InferAndApplyOver is InferAndApply with the planted program's
// inference run in the storage of base, the module's baseline
// inference run (see infer.RunOver), which is released.
func InferAndApplyOver(base *infer.Result, prog *ast.Program, diags *source.Diagnostics, opts Options) (*Result, error) {
	res := &Result{TInfo: opts.Info}
	if res.TInfo == nil {
		opts.Trace.Enter(obs.PhaseTypecheck)
		res.TInfo = types.Check(prog, diags)
		if diags.HasErrors() {
			return res, fmt.Errorf("confine: %w", diags.Err())
		}
	}

	// 1. Plant.
	opts.Trace.Enter(obs.PhaseInfer)
	planter := plant(prog, res.TInfo)
	res.Planted = len(planter.planted)

	// 2. Infer and solve.
	optional := make(map[*ast.ConfineStmt]bool, len(planter.planted))
	for _, c := range planter.planted {
		optional[c] = true
	}
	res.Infer = infer.RunOver(base, res.TInfo, diags, infer.Options{
		InferRestrictLets:     opts.Lets,
		InferRestrictParams:   opts.Params,
		OptionalConfines:      optional,
		ImportEffects:         opts.ImportEffects,
		LiberalRestrictEffect: true, // inference uses the §5 semantics
	})
	if res.Infer.InternalErrors > 0 {
		return res, fmt.Errorf("confine: inference failed on the planted program: %w", diags.Err())
	}
	opts.Trace.Enter(obs.PhaseSolve)
	res.Solution = solve.SolveCtx(opts.Ctx, res.Infer.Sys)
	if effects.ReportMalformed(diags, prog.File, res.Solution.Malformed()) {
		return res, fmt.Errorf("confine: %w", diags.Err())
	}
	res.Violations = res.Solution.Violations()
	for _, v := range res.Violations {
		diags.Errorf(prog.File, v.Site, "confine", "%s", v.String())
	}

	// 3. Apply verdicts.
	verdict := make(map[*ast.ConfineStmt]bool)
	for _, c := range res.Infer.Candidates {
		if cs, ok := c.Node.(*ast.ConfineStmt); ok && optional[cs] {
			ok := res.Infer.Succeeded(c)
			verdict[cs] = ok
			if ok {
				cs.Inferred = true
				res.Kept = append(res.Kept, c)
			} else {
				res.Removed++
			}
		}
	}
	for _, f := range prog.Funs {
		applyVerdicts(f.Body, verdict, nil)
	}
	// Mark successful let candidates as in restrict inference.
	for _, c := range res.Infer.Candidates {
		if d, ok := c.Node.(*ast.DeclStmt); ok && res.Infer.Succeeded(c) {
			d.Restrict = true
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------
// Planting

// lockArg is one confinable change_type argument: its syntactic key
// and the occurrence a planted clone copies (the last one in source
// order).
type lockArg struct {
	key  string
	expr ast.Expr
}

// lockArgs summarizes the change_type arguments a statement contains:
// each key once, in order of first appearance.
type lockArgs []lockArg

func (s lockArgs) add(key string, e ast.Expr) lockArgs {
	for i := range s {
		if s[i].key == key {
			s[i].expr = e
			return s
		}
	}
	return append(s, lockArg{key, e})
}

func (s lockArgs) merge(t lockArgs) lockArgs {
	for _, a := range t {
		s = s.add(a.key, a.expr)
	}
	return s
}

// scope is the chain of local binders visible at a program point,
// innermost first. A frame is either one binder (a parameter or a
// let-in) or a block prefix, whose lets are in scope after it.
type scope struct {
	up    *scope
	sym   *types.Symbol
	stmts []ast.Stmt
}

// planter inserts confine? candidates, bottom-up: each statement's
// lock arguments are summarized once, after its nested blocks are
// planted. Planted candidates are opaque: per the heuristic, "the new
// sub-block does not contain a change_type".
type planter struct {
	info    *types.Info
	planted []*ast.ConfineStmt
	// refused counts the wraps skipped because they would not stay
	// well scoped (see wellScoped).
	refused int
}

// plant plants candidates in every function of prog and records the
// clones' standard-checking entries in info, prog's checking.
func plant(prog *ast.Program, info *types.Info) *planter {
	p := &planter{info: info}
	for _, f := range prog.Funs {
		var sc *scope
		for _, prm := range f.Params {
			sc = &scope{up: sc, sym: info.BinderOf(prm)}
		}
		p.block(f.Body, sc, nil)
	}
	return p
}

// block plants candidates in b, nested blocks first (the smallest
// scopes get the tightest confines), and returns the lock arguments
// of b's final statements. sc is the scope at b's entry; masked holds
// the expressions confined by enclosing confines, which are not
// wrapped again.
func (p *planter) block(b *ast.Block, sc *scope, masked map[string]bool) lockArgs {
	sums := make([]lockArgs, len(b.Stmts))
	for i, s := range b.Stmts {
		sums[i] = p.stmt(s, sc, b.Stmts[:i], masked)
	}
	var out lockArgs
	for _, sum := range p.pair(b, sums, sc, masked) {
		out = out.merge(sum)
	}
	return out
}

// stmt plants in the blocks nested in s, which follows the statements
// before in its block, and returns s's lock arguments.
func (p *planter) stmt(s ast.Stmt, sc *scope, before []ast.Stmt, masked map[string]bool) lockArgs {
	in := func() *scope { return &scope{up: sc, stmts: before} }
	switch s := s.(type) {
	case *ast.DeclStmt:
		return exprArgs(nil, s.Init)
	case *ast.BindStmt:
		body := &scope{up: in(), sym: p.info.BinderOf(s)}
		return exprArgs(nil, s.Init).merge(p.block(s.Body, body, masked))
	case *ast.ConfineStmt:
		sub := maskWith(masked, ast.ExprString(s.Expr))
		return exprArgs(nil, s.Expr).merge(p.block(s.Body, in(), sub))
	case *ast.AssignStmt:
		return exprArgs(exprArgs(nil, s.LHS), s.RHS)
	case *ast.ExprStmt:
		return exprArgs(nil, s.X)
	case *ast.IfStmt:
		out := exprArgs(nil, s.Cond).merge(p.block(s.Then, in(), masked))
		if s.Else != nil {
			out = out.merge(p.block(s.Else, in(), masked))
		}
		return out
	case *ast.WhileStmt:
		return exprArgs(nil, s.Cond).merge(p.block(s.Body, in(), masked))
	case *ast.ReturnStmt:
		if s.X != nil {
			return exprArgs(nil, s.X)
		}
	case *ast.Block:
		return p.block(s, in(), masked)
	}
	return nil
}

// exprArgs adds to out the confinable arguments of the spin_lock/
// spin_unlock calls in e.
func exprArgs(out lockArgs, e ast.Expr) lockArgs {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && types.IsLockOp(call.Fun) && len(call.Args) == 1 && confinable(call.Args[0]) {
			out = out.add(ast.ExprString(call.Args[0]), call.Args[0])
		}
		return true
	})
	return out
}

// confinable enforces the Section 6.1 syntactic restriction: the
// expression must terminate and behave like a name, so it is built
// from identifiers, field accesses, indexes, dereferences and
// address-of only — no calls, no allocation.
func confinable(e ast.Expr) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.CallExpr, *ast.NewExpr:
			ok = false
			return false
		}
		return true
	})
	return ok
}

func maskWith(masked map[string]bool, key string) map[string]bool {
	sub := map[string]bool{key: true}
	for k := range masked {
		sub[k] = true
	}
	return sub
}

// pair plants at b's own level, to a fixpoint: while some unmasked
// expression has change_types in two or more statements, it wraps the
// smallest range covering them (ties go to the leftmost range, then
// the smaller key) in a confine? of that expression. sums holds the
// statements' lock arguments; pair returns them for the final
// statements.
func (p *planter) pair(b *ast.Block, sums []lockArgs, sc *scope, masked map[string]bool) []lockArgs {
	type occurrence struct {
		first, last, n int
		expr           ast.Expr
	}
	var refused map[string]bool
	occ := map[string]occurrence{}
	for {
		clear(occ)
		for i, sum := range sums {
			for _, a := range sum {
				o, seen := occ[a.key]
				if !seen {
					o.first = i
				}
				o.last, o.n, o.expr = i, o.n+1, a.expr
				occ[a.key] = o
			}
		}
		bestKey := ""
		var best occurrence
		for k, o := range occ {
			if masked[k] || refused[k] || o.n < 2 {
				continue
			}
			if bestKey == "" ||
				(o.last-o.first) < (best.last-best.first) ||
				((o.last-o.first) == (best.last-best.first) && (o.first < best.first || (o.first == best.first && k < bestKey))) {
				bestKey, best = k, o
			}
		}
		if bestKey == "" {
			return sums
		}
		if !p.wellScoped(b, best.first, best.last, best.expr, sc) {
			if refused == nil {
				refused = map[string]bool{}
			}
			refused[bestKey] = true
			p.refused++
			continue
		}
		sums = p.wrap(b, sums, best.first, best.last, best.expr, bestKey, sc, masked)
	}
}

// wellScoped reports whether wrapping b.Stmts[first..last] in a
// confine? of a clone of expr keeps the program's meaning: every
// identifier of the clone must denote, at the wrap point, the symbol
// the original occurrence denotes (so the clone may share its types),
// and no let among the wrapped statements may be used after them (its
// scope would end at the confine).
func (p *planter) wellScoped(b *ast.Block, first, last int, expr ast.Expr, sc *scope) bool {
	at := &scope{up: sc, stmts: b.Stmts[:first]}
	ok := true
	ast.Inspect(expr, func(n ast.Node) bool {
		if v, isVar := n.(*ast.VarExpr); isVar && ok {
			ok = p.resolve(at, v.Name) == p.info.UseOf(v)
		}
		return ok
	})
	if !ok {
		return false
	}
	var lets []*types.Symbol
	for _, s := range b.Stmts[first : last+1] {
		if d, isLet := s.(*ast.DeclStmt); isLet {
			lets = append(lets, p.info.BinderOf(d))
		}
	}
	if len(lets) == 0 {
		return true
	}
	for _, s := range b.Stmts[last+1:] {
		ast.Inspect(s, func(n ast.Node) bool {
			if v, isVar := n.(*ast.VarExpr); isVar && ok {
				for _, l := range lets {
					if p.info.UseOf(v) == l {
						ok = false
					}
				}
			}
			return ok
		})
	}
	return ok
}

// resolve returns the symbol name denotes in sc, as standard checking
// would resolve it there.
func (p *planter) resolve(sc *scope, name string) *types.Symbol {
	for ; sc != nil; sc = sc.up {
		if sc.sym != nil {
			if sc.sym.Name == name {
				return sc.sym
			}
			continue
		}
		for i := len(sc.stmts) - 1; i >= 0; i-- {
			if d, ok := sc.stmts[i].(*ast.DeclStmt); ok && d.Name == name {
				return p.info.BinderOf(d)
			}
		}
	}
	return p.info.Globals[name]
}

// wrap replaces b.Stmts[first..last] with a single confine? of a
// clone of expr, plants inside it with key masked, and returns the
// updated statement summaries, in which the confine has no lock
// arguments.
func (p *planter) wrap(b *ast.Block, sums []lockArgs, first, last int, expr ast.Expr, key string, sc *scope, masked map[string]bool) []lockArgs {
	span := b.Stmts[first].Span().Union(b.Stmts[last].Span())
	inner := &ast.Block{
		Stmts: append([]ast.Stmt(nil), b.Stmts[first:last+1]...),
		Sp:    span,
	}
	prog := p.info.Prog
	cs := &ast.ConfineStmt{
		ID:       prog.NewID(),
		Expr:     ast.CloneExpr(prog, expr),
		Body:     inner,
		Inferred: false, // set on success
		Sp:       span,
	}
	p.info.Extend()
	copyEntries(p.info, expr, cs.Expr)
	p.planted = append(p.planted, cs)

	// The wrapped statements' nested blocks are already planted; only
	// their own level may pair other expressions.
	p.pair(inner, append([]lockArgs(nil), sums[first:last+1]...),
		&scope{up: sc, stmts: b.Stmts[:first]}, maskWith(masked, key))

	b.Stmts = append(append(b.Stmts[:first:first], cs), b.Stmts[last+1:]...)
	return append(append(sums[:first:first], nil), sums[last+1:]...)
}

// copyEntries gives every node of c, a clone of orig planted in a
// confine, the entries standard checking recorded for its original,
// so the planted program needs no second check. The planter clones
// only occurrences that are well scoped at the wrap point, which
// makes the copied entries exactly the ones a check would compute.
func copyEntries(in *types.Info, orig, c ast.Expr) {
	o, n := orig.NodeID(), c.NodeID()
	if t := in.ExprTypes[o]; t != nil {
		in.ExprTypes[n] = t
		in.Typed++
	}
	in.IsPlace[n] = in.IsPlace[o]
	in.Uses[n] = in.Uses[o]
	switch o := orig.(type) {
	case *ast.DerefExpr:
		copyEntries(in, o.X, c.(*ast.DerefExpr).X)
	case *ast.AddrExpr:
		copyEntries(in, o.X, c.(*ast.AddrExpr).X)
	case *ast.IndexExpr:
		copyEntries(in, o.X, c.(*ast.IndexExpr).X)
		copyEntries(in, o.Index, c.(*ast.IndexExpr).Index)
	case *ast.FieldExpr:
		copyEntries(in, o.X, c.(*ast.FieldExpr).X)
	case *ast.BinExpr:
		copyEntries(in, o.X, c.(*ast.BinExpr).X)
		copyEntries(in, o.Y, c.(*ast.BinExpr).Y)
	case *ast.UnExpr:
		copyEntries(in, o.X, c.(*ast.UnExpr).X)
	}
}

// ---------------------------------------------------------------------
// Applying verdicts

// applyVerdicts rewrites b: failed planted confines are spliced out
// (their body statements inlined), successful ones kept; directly
// nested successful confines of an expression already confined by an
// enclosing kept confine are redundant and spliced; and adjacent kept
// confines of the same expression merge.
func applyVerdicts(b *ast.Block, verdict map[*ast.ConfineStmt]bool, active map[string]bool) {
	var out []ast.Stmt
	for _, s := range b.Stmts {
		cs, isConfine := s.(*ast.ConfineStmt)
		if !isConfine {
			applyVerdictsStmt(s, verdict, active)
			out = append(out, s)
			continue
		}
		ok, wasPlanted := verdict[cs]
		key := ast.ExprString(cs.Expr)
		switch {
		case wasPlanted && !ok:
			// Failed: splice the body statements inline.
			applyVerdicts(cs.Body, verdict, active)
			out = append(out, cs.Body.Stmts...)
		case wasPlanted && active[key]:
			// Redundant nesting under an enclosing confine of the
			// same expression: keep only the outermost.
			applyVerdicts(cs.Body, verdict, active)
			out = append(out, cs.Body.Stmts...)
		default:
			sub := map[string]bool{key: true}
			for k := range active {
				sub[k] = true
			}
			applyVerdicts(cs.Body, verdict, sub)
			// Adjacent merge: (confine e {s1}; confine e {s2}) =
			// confine e {s1; s2}.
			if len(out) > 0 {
				if prev, okPrev := out[len(out)-1].(*ast.ConfineStmt); okPrev &&
					prev.Inferred && cs.Inferred && ast.EqualExpr(prev.Expr, cs.Expr) {
					prev.Body.Stmts = append(prev.Body.Stmts, cs.Body.Stmts...)
					prev.Sp = prev.Sp.Union(cs.Sp)
					continue
				}
			}
			out = append(out, cs)
		}
	}
	b.Stmts = out
}

func applyVerdictsStmt(s ast.Stmt, verdict map[*ast.ConfineStmt]bool, active map[string]bool) {
	switch s := s.(type) {
	case *ast.BindStmt:
		applyVerdicts(s.Body, verdict, active)
	case *ast.IfStmt:
		applyVerdicts(s.Then, verdict, active)
		if s.Else != nil {
			applyVerdicts(s.Else, verdict, active)
		}
	case *ast.WhileStmt:
		applyVerdicts(s.Body, verdict, active)
	case *ast.Block:
		applyVerdicts(s, verdict, active)
	}
}
