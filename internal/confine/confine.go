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
	"slices"

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
	// candidates that succeeded and remain in the AST (the rest are
	// spliced back out).
	Planted int
	Kept    []*infer.Binding
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
	res.Infer = infer.RunOver(base, res.TInfo, diags, infer.Options{
		InferRestrictLets:     opts.Lets,
		InferRestrictParams:   opts.Params,
		ImportEffects:         opts.ImportEffects,
		LiberalRestrictEffect: true, // inference uses the §5 semantics
	})
	if res.Infer.InternalErrors > 0 {
		return res, fmt.Errorf("confine: inference failed on the planted program: %w", diags.Err())
	}
	opts.Trace.Enter(obs.PhaseSolve)
	res.Solution = solve.SolveCtx(opts.Ctx, res.Infer.Sys)
	res.Violations = res.Solution.Violations()
	for _, v := range res.Violations {
		diags.Errorf(prog.File, v.Site, "confine", "%s", v.String())
	}

	// 3. Apply verdicts: every confine candidate is a planted
	// confine?, marked Inferred on success; successful let candidates
	// become restricts, as in restrict inference.
	for _, c := range res.Infer.Candidates {
		switch n := c.Node.(type) {
		case *ast.ConfineStmt:
			if res.Infer.Succeeded(c) {
				n.Inferred = true
				res.Kept = append(res.Kept, c)
			}
		case *ast.DeclStmt:
			if res.Infer.Succeeded(c) {
				n.Restrict = true
			}
		}
	}
	for _, f := range prog.Funs {
		applyVerdicts(res.Infer, f.Body, nil)
	}
	return res, nil
}

// ---------------------------------------------------------------------
// Planting

// lockArg is one confinable change_type argument: its key (see
// planter.keyOf) and the occurrence a planted clone copies (the last
// one in source order).
type lockArg struct {
	key  int
	expr ast.Expr
}

// lockArgs summarizes the change_type arguments a statement contains:
// each key once, in order of first appearance.
type lockArgs []lockArg

func (s lockArgs) add(k int, e ast.Expr) lockArgs {
	for i := range s {
		if s[i].key == k {
			s[i].expr = e
			return s
		}
	}
	return append(s, lockArg{k, e})
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

	// keys are the distinct expressions the function being planted
	// locks or confines, in order of first sight; a lock argument is
	// known by its index here. occ is pair's table of occurrences by
	// key, all zero between rounds, and seen lists the keys a round
	// filled in.
	keys []key
	occ  []occurrence
	seen []int
}

// key is one distinct expression a function locks or confines.
type key struct {
	expr  ast.Expr
	print uint64 // fingerprint(fnvOffset, expr)
	// masked counts the confines of expr enclosing the current
	// point: their bodies do not wrap expr again.
	masked int
	// name is expr's rendering, made when a tie needs it (see before).
	name string
}

// occurrence records where a key's lock arguments fall among a
// block's statements: the first and last statement, how many
// statements hold one, and the last occurrence.
type occurrence struct {
	first, last, n int
	expr           ast.Expr
}

// plant plants candidates in every function of prog and records the
// clones' standard-checking entries in info, prog's checking.
func plant(prog *ast.Program, info *types.Info) *planter {
	p := &planter{info: info}
	for _, f := range prog.Funs {
		p.keys = p.keys[:0]
		var sc *scope
		for _, prm := range f.Params {
			sc = &scope{up: sc, sym: info.BinderOf(prm)}
		}
		p.block(f.Body, sc)
	}
	return p
}

// keyOf returns the key of e: expressions that match syntactically
// (ast.EqualExpr) share one. A function locks only a few distinct
// expressions, so keyOf scans the keys so far rather than rendering
// and hashing e; it compares fingerprints first, so a function that
// locks thousands of expressions pays one word compare per key, not
// one tree comparison.
func (p *planter) keyOf(e ast.Expr) int {
	fp := fingerprint(fnvOffset, e)
	for k := range p.keys {
		if p.keys[k].print == fp && ast.EqualExpr(p.keys[k].expr, e) {
			return k
		}
	}
	p.keys = append(p.keys, key{expr: e, print: fp})
	return len(p.keys) - 1
}

// FNV-1a parameters for fingerprint.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fingerprint mixes into h every field of e that ast.EqualExpr
// compares, so matching expressions get equal fingerprints. Distinct
// ones may collide; keyOf confirms with EqualExpr.
func fingerprint(h uint64, e ast.Expr) uint64 {
	mix := func(h, x uint64) uint64 { return (h ^ x) * fnvPrime }
	name := func(h uint64, s string) uint64 {
		for i := 0; i < len(s); i++ {
			h = mix(h, uint64(s[i]))
		}
		return h
	}
	switch e := e.(type) {
	case *ast.IntLit:
		return mix(mix(h, 1), uint64(e.Value))
	case *ast.VarExpr:
		return name(mix(h, 2), e.Name)
	case *ast.NewExpr:
		return fingerprint(mix(h, 3), e.Init)
	case *ast.DerefExpr:
		return fingerprint(mix(h, 4), e.X)
	case *ast.AddrExpr:
		return fingerprint(mix(h, 5), e.X)
	case *ast.IndexExpr:
		return fingerprint(fingerprint(mix(h, 6), e.X), e.Index)
	case *ast.FieldExpr:
		tag := uint64(7)
		if e.Arrow {
			tag = 8
		}
		return fingerprint(name(mix(h, tag), e.Name), e.X)
	case *ast.BinExpr:
		return fingerprint(fingerprint(mix(mix(h, 9), uint64(e.Op)), e.X), e.Y)
	case *ast.UnExpr:
		return fingerprint(mix(mix(h, 10), uint64(e.Op)), e.X)
	case *ast.CallExpr:
		h = mix(name(mix(h, 11), e.Fun), uint64(len(e.Args)))
		for _, a := range e.Args {
			h = fingerprint(h, a)
		}
	}
	return h
}

// block plants candidates in b, nested blocks first (the smallest
// scopes get the tightest confines), and returns the lock arguments
// of b's final statements. sc is the scope at b's entry.
func (p *planter) block(b *ast.Block, sc *scope) lockArgs {
	sums := make([]lockArgs, len(b.Stmts))
	for i, s := range b.Stmts {
		sums[i] = p.stmt(s, sc, b.Stmts[:i])
	}
	var out lockArgs
	for _, sum := range p.pair(b, sums, sc) {
		out = out.merge(sum)
	}
	return out
}

// stmt plants in the blocks nested in s, which follows the statements
// before in its block, and returns s's lock arguments.
func (p *planter) stmt(s ast.Stmt, sc *scope, before []ast.Stmt) lockArgs {
	in := func() *scope { return &scope{up: sc, stmts: before} }
	switch s := s.(type) {
	case *ast.DeclStmt:
		return p.exprArgs(nil, s.Init)
	case *ast.BindStmt:
		body := &scope{up: in(), sym: p.info.BinderOf(s)}
		return p.exprArgs(nil, s.Init).merge(p.block(s.Body, body))
	case *ast.ConfineStmt:
		out := p.exprArgs(nil, s.Expr)
		k := p.keyOf(s.Expr)
		p.keys[k].masked++
		out = out.merge(p.block(s.Body, in()))
		p.keys[k].masked--
		return out
	case *ast.AssignStmt:
		return p.exprArgs(p.exprArgs(nil, s.LHS), s.RHS)
	case *ast.ExprStmt:
		return p.exprArgs(nil, s.X)
	case *ast.IfStmt:
		out := p.exprArgs(nil, s.Cond).merge(p.block(s.Then, in()))
		if s.Else != nil {
			out = out.merge(p.block(s.Else, in()))
		}
		return out
	case *ast.WhileStmt:
		return p.exprArgs(nil, s.Cond).merge(p.block(s.Body, in()))
	case *ast.ReturnStmt:
		if s.X != nil {
			return p.exprArgs(nil, s.X)
		}
	case *ast.Block:
		return p.block(s, in())
	}
	return nil
}

// exprArgs adds to out the confinable arguments of the spin_lock/
// spin_unlock calls in e, in pre-order. It runs on every expression
// of the program, so it recurses directly rather than through
// ast.Inspect's callback.
func (p *planter) exprArgs(out lockArgs, e ast.Expr) lockArgs {
	switch e := e.(type) {
	case *ast.CallExpr:
		if types.IsLockOp(e.Fun) && len(e.Args) == 1 && confinable(e.Args[0]) {
			out = out.add(p.keyOf(e.Args[0]), e.Args[0])
		}
		for _, a := range e.Args {
			out = p.exprArgs(out, a)
		}
	case *ast.NewExpr:
		out = p.exprArgs(out, e.Init)
	case *ast.DerefExpr:
		out = p.exprArgs(out, e.X)
	case *ast.AddrExpr:
		out = p.exprArgs(out, e.X)
	case *ast.IndexExpr:
		out = p.exprArgs(p.exprArgs(out, e.X), e.Index)
	case *ast.FieldExpr:
		out = p.exprArgs(out, e.X)
	case *ast.BinExpr:
		out = p.exprArgs(p.exprArgs(out, e.X), e.Y)
	case *ast.UnExpr:
		out = p.exprArgs(out, e.X)
	}
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

// pair plants at b's own level, to a fixpoint: while some unmasked
// expression has change_types in two or more statements, it wraps the
// smallest range covering them (ties go to the leftmost range, then
// the expression whose rendering sorts first) in a confine? of that
// expression. sums holds the statements' lock arguments; pair returns
// them for the final statements.
func (p *planter) pair(b *ast.Block, sums []lockArgs, sc *scope) []lockArgs {
	if n := len(p.keys) - len(p.occ); n > 0 {
		p.occ = append(p.occ, make([]occurrence, n)...)
	}
	var refused map[int]bool // rare: no corpus module refuses a wrap
	for {
		// Each round fills in only the keys b's statements hold and
		// zeroes them again before wrap, whose nested pair reuses
		// the table.
		seen := p.seen[:0]
		for i, sum := range sums {
			for _, a := range sum {
				o := &p.occ[a.key]
				if o.n == 0 {
					o.first = i
					seen = append(seen, a.key)
				}
				o.last, o.n, o.expr = i, o.n+1, a.expr
			}
		}
		best := -1
		for _, k := range seen {
			if p.occ[k].n < 2 || p.keys[k].masked > 0 || refused[k] {
				continue
			}
			if best < 0 || p.before(k, best) {
				best = k
			}
		}
		var o occurrence
		if best >= 0 {
			o = p.occ[best]
		}
		for _, k := range seen {
			p.occ[k] = occurrence{}
		}
		p.seen = seen
		switch {
		case best < 0:
			return sums
		case !p.wellScoped(b, o.first, o.last, o.expr, sc):
			if refused == nil {
				refused = map[int]bool{}
			}
			refused[best] = true
			p.refused++
		default:
			sums = p.wrap(b, sums, o.first, o.last, o.expr, best, sc)
		}
	}
}

// before reports whether key k is wrapped before key j: its range is
// smaller, or as small and further left, or the same range and its
// expression's rendering sorts first. Only that last tie renders
// expressions.
func (p *planter) before(k, j int) bool {
	a, b := p.occ[k], p.occ[j]
	if a.last-a.first != b.last-b.first {
		return a.last-a.first < b.last-b.first
	}
	if a.first != b.first {
		return a.first < b.first
	}
	return p.name(k) < p.name(j)
}

// name returns the rendering of key k, made once per function.
func (p *planter) name(k int) string {
	if p.keys[k].name == "" {
		p.keys[k].name = ast.ExprString(p.keys[k].expr)
	}
	return p.keys[k].name
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
// clone of expr, plants inside it with key k masked, and returns the
// updated statement summaries, in which the confine has no lock
// arguments.
func (p *planter) wrap(b *ast.Block, sums []lockArgs, first, last int, expr ast.Expr, k int, sc *scope) []lockArgs {
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
		Optional: true,
		Inferred: false, // set on success
		Sp:       span,
	}
	p.info.Extend()
	copyEntries(p.info, expr, cs.Expr)
	p.planted = append(p.planted, cs)

	// The wrapped statements' nested blocks are already planted; only
	// their own level may pair other expressions.
	p.keys[k].masked++
	p.pair(inner, append([]lockArgs(nil), sums[first:last+1]...),
		&scope{up: sc, stmts: b.Stmts[:first]})
	p.keys[k].masked--

	b.Stmts = slices.Replace(b.Stmts, first, last+1, ast.Stmt(cs))
	return slices.Replace(sums, first, last+1, nil)
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
// (their body statements inlined), successful ones kept as plain
// confines; directly nested successful confines of an expression
// already confined by an enclosing kept confine are redundant and
// spliced; and adjacent kept confines of the same expression merge.
// A confine that pruning or merging folds into a survivor hands it
// its scope, so its copy ρ′ joins the survivor's (absorb). active
// holds the kept confines enclosing b.
func applyVerdicts(res *infer.Result, b *ast.Block, active []*ast.ConfineStmt) {
	out := make([]ast.Stmt, 0, len(b.Stmts))
	for _, s := range b.Stmts {
		cs, isConfine := s.(*ast.ConfineStmt)
		if !isConfine {
			applyVerdictsStmt(res, s, active)
			out = append(out, s)
			continue
		}
		outer := slices.IndexFunc(active, func(a *ast.ConfineStmt) bool { return ast.EqualExpr(a.Expr, cs.Expr) })
		switch {
		case cs.Optional && !cs.Inferred:
			// Failed: splice the body statements inline.
			applyVerdicts(res, cs.Body, active)
			out = append(out, cs.Body.Stmts...)
		case cs.Optional && outer >= 0:
			// Redundant nesting under an enclosing confine of the
			// same expression: keep only the outermost.
			absorb(res, active[outer], cs)
			applyVerdicts(res, cs.Body, active)
			out = append(out, cs.Body.Stmts...)
		default:
			cs.Optional = false
			applyVerdicts(res, cs.Body, append(active, cs))
			// Adjacent merge: (confine e {s1}; confine e {s2}) =
			// confine e {s1; s2}.
			if len(out) > 0 {
				if prev, okPrev := out[len(out)-1].(*ast.ConfineStmt); okPrev &&
					prev.Inferred && cs.Inferred && ast.EqualExpr(prev.Expr, cs.Expr) {
					absorb(res, prev, cs)
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

// absorb merges the copy ρ′ of gone, a kept confine folded into
// survivor, into survivor's copy: the lock operations of gone's body
// then act on the scope qual enters, and the merged copy stays linear.
func absorb(res *infer.Result, survivor, gone *ast.ConfineStmt) {
	if s, g := res.BindingOf(survivor), res.BindingOf(gone); s != nil && g != nil {
		res.Locs.Absorb(s.RhoP, g.RhoP, nil)
	}
}

func applyVerdictsStmt(res *infer.Result, s ast.Stmt, active []*ast.ConfineStmt) {
	switch s := s.(type) {
	case *ast.BindStmt:
		applyVerdicts(res, s.Body, active)
	case *ast.IfStmt:
		applyVerdicts(res, s.Then, active)
		if s.Else != nil {
			applyVerdicts(res, s.Else, active)
		}
	case *ast.WhileStmt:
		applyVerdicts(res, s.Body, active)
	case *ast.Block:
		applyVerdicts(res, s, active)
	}
}
