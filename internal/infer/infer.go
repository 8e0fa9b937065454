package infer

import (
	"localalias/internal/ast"
	"localalias/internal/effects"
	"localalias/internal/locs"
	"localalias/internal/source"
	"localalias/internal/types"
)

// Options selects between pure checking and the inference modes.
type Options struct {
	// InferRestrictLets treats every ref-typed remainder-scope let
	// (DeclStmt) as a let-or-restrict candidate (Section 5).
	InferRestrictLets bool
	// InferRestrictParams treats every ref-typed parameter as a
	// restrict candidate (the C99 "restrict parameter" usage of the
	// paper's introduction).
	InferRestrictParams bool
	// NoDown disables the (Down) rule at function boundaries — the
	// ablation discussed in Section 3.1, where effects on dead
	// temporary storage leak into latent effects and spuriously
	// defeat restrict.
	NoDown bool
	// ImportEffects maps qualified imported-function names ("pkg.fn")
	// to per-formal effect masks computed from the callee's solved
	// latent effect by the cross-module pass (internal/modgraph).
	// Qualified calls to functions absent from the map — or when the
	// map is nil — are havoc'd: read+write+alloc on every location
	// reachable from their ref arguments.
	ImportEffects map[string][]effects.Mask
	// LiberalRestrictEffect switches explicit restrict/confine
	// annotations to the liberal semantics of Section 5 (consistent
	// with C99): restricting a location is an effect on it only if
	// the restricted copy is actually used. The default is the strict
	// rule of Figure 2, where the conclusion always carries {ρ}.
	// Inference always uses the liberal rule (that is the
	// let-or-restrict construction), so optimality of inference is
	// stated — and tested — against this mode.
	LiberalRestrictEffect bool
}

// CandKind classifies a restrict or confine scope, explicit or a
// candidate: a let or bind restrict, a parameter, or a confine.
type CandKind int

// The scope kinds.
const (
	CandLet CandKind = iota
	CandParam
	CandConfine
)

func (k CandKind) String() string {
	switch k {
	case CandLet:
		return "let"
	case CandParam:
		return "param"
	case CandConfine:
		return "confine"
	default:
		return "cand(?)"
	}
}

// Binding is one restrict or confine scope, explicit or an inference
// candidate (a let-or-restrict or confine?): within Node's scope the
// fresh location RhoP is a linear copy of Rho. After solving, a
// candidate's verdict is Result.Succeeded.
type Binding struct {
	Kind     CandKind
	Node     ast.Node // *ast.DeclStmt, *ast.BindStmt, *ast.Param or *ast.ConfineStmt
	Name     string   // binder name or confined expression rendering
	Site     source.Span
	Rho      locs.Loc // the outer location ρ
	RhoP     locs.Loc // the fresh location ρ′
	Explicit bool
}

// Result carries everything later phases need.
type Result struct {
	Prog  *ast.Program
	TInfo *types.Info
	Locs  *locs.Store
	Sys   *effects.System

	// LTypes holds the located value type of every inferred
	// expression, indexed by ast.NodeID (read it through LTypeOf).
	LTypes []*LType
	// Bindings holds the ρ/ρ′ pair of every restrict/confine node and
	// candidate param and let, indexed by ast.NodeID (read it through
	// BindingOf).
	Bindings []*Binding
	// Candidates lists the bindings that are inference candidates: a
	// parameter before its body's, a let or confine? after its scope's.
	Candidates []*Binding
	// FunEff is each function's latent (post-Down) effect variable;
	// FunBody is the pre-Down body effect.
	FunEff  map[string]effects.Var
	FunBody map[string]effects.Var
	// SymLTypes is the located type of each symbol.
	SymLTypes map[*types.Symbol]*LType

	// InternalErrors counts internal-error diagnostics recorded
	// during inference (unification mismatches that standard checking
	// should have prevented). Non-zero means the run's constraint
	// system is unreliable and the module must be failed.
	InternalErrors int

	// slabs are the chunks holding the run's located types, for
	// RunOver to fill again.
	slabs [][]LType
	// released marks a Result whose storage a later run took over
	// (RunOver).
	released bool
}

// check guards the accessors against use after RunOver took the
// Result's storage.
func (r *Result) check() {
	if r.released {
		panic("infer: Result used after RunOver took its storage")
	}
}

// TargetOf returns the pointed-to cell of a ref-typed expression
// (canonical), e.g. the lock cell of a spin_lock argument.
func (r *Result) TargetOf(e ast.Expr) (locs.Loc, bool) {
	lt := r.LTypeOf(e)
	if lt == nil || lt.Kind() != LRef {
		return locs.NoLoc, false
	}
	return r.Locs.Find(lt.Cell()), true
}

// LTypeOf returns the located type inference gave e, or nil. Like the
// types.Info accessors, it treats a node numbered after the run (a
// confine planted into the program later) as absent.
func (r *Result) LTypeOf(e ast.Expr) *LType {
	r.check()
	return ast.Lookup(r.LTypes, e.NodeID())
}

// BindingOf returns the restrict/confine binding of n, or nil.
func (r *Result) BindingOf(n ast.Numbered) *Binding {
	r.check()
	return ast.Lookup(r.Bindings, n.NodeID())
}

// Succeeded reports a candidate's post-solve verdict: the candidate
// became a restrict/confine iff its two locations stayed distinct.
func (r *Result) Succeeded(c *Binding) bool {
	r.check()
	return !r.Locs.Same(c.Rho, c.RhoP)
}

// Run performs alias-and-effect inference over a standard-typed
// program. Structural problems (e.g. a confined expression containing
// a call) are reported to diags; constraint violations are NOT — they
// are produced by solving (package solve) and interpreted by the
// restrict/confine packages.
func Run(tinfo *types.Info, diags *source.Diagnostics, opts Options) *Result {
	return RunOver(nil, tinfo, diags, opts)
}

// RunOver is Run in the storage of prev, an earlier run over the same
// module whose result is no longer needed: its constraint tables,
// location store and side tables are emptied and refilled instead of
// allocated again. Confine inference uses it to run over the planted
// program in the storage of the module's baseline run. prev is
// released: its tables are gone and its accessors panic. A nil prev
// makes RunOver Run.
func RunOver(prev *Result, tinfo *types.Info, diags *source.Diagnostics, opts Options) *Result {
	var res *Result
	if prev == nil {
		res = newResult(tinfo)
	} else {
		res = prev.handOff(tinfo)
	}
	res.Prog, res.TInfo = tinfo.Prog, tinfo
	b := newBuilder(res.Locs, res.Sys, res.slabs)
	b.structReg = tinfo.Structs
	b.diags = diags
	b.file = tinfo.Prog.File
	b.site = source.NoSpan

	inf := &inferencer{
		b:     b,
		ls:    res.Locs,
		sys:   res.Sys,
		tinfo: tinfo,
		diags: diags,
		opts:  opts,
		res:   res,
	}
	inf.run()
	res.InternalErrors = b.internal
	res.slabs = b.chunks
	return res
}

// newResult allocates the tables of a run over tinfo. Reserving
// against the typed-expression count avoids slice growth on the
// constraint-building hot path (see System.Reserve for the measured
// ratios). The tables get 20% headroom so that a rerun over the
// planted program (RunOver) fits in them: planting adds at most 20%
// typed expressions and 22% nodes to a corpus module.
func newResult(tinfo *types.Info) *Result {
	ls := locs.NewStore()
	sys := effects.NewSystem(ls)
	t, n := tinfo.Typed, tinfo.Prog.NumNodes
	sys.Reserve(6*t/5, 9*t/5)
	nf := len(tinfo.Prog.Funs)
	return &Result{
		Locs:      ls,
		Sys:       sys,
		LTypes:    make([]*LType, n, n+n/4),
		Bindings:  make([]*Binding, n, n+n/4),
		FunEff:    make(map[effKey]effects.Var, nf),
		FunBody:   make(map[effKey]effects.Var, nf),
		SymLTypes: make(map[*types.Symbol]*LType, tinfo.NumBinders),
	}
}

// handOff releases r and returns a Result for a run over tinfo that
// owns r's emptied tables and its located-type chunks (as spares).
func (r *Result) handOff(tinfo *types.Info) *Result {
	r.check()
	t, n := tinfo.Typed, tinfo.Prog.NumNodes
	out := &Result{
		Locs:      r.Locs,
		Sys:       r.Sys,
		LTypes:    resized(r.LTypes, n),
		Bindings:  resized(r.Bindings, n),
		FunEff:    r.FunEff,
		FunBody:   r.FunBody,
		SymLTypes: r.SymLTypes,
		slabs:     r.slabs,
	}
	*r = Result{released: true}
	out.Locs.Reset()
	out.Sys.Reset()
	out.Sys.Reserve(t, 3*t/2)
	clear(out.FunEff)
	clear(out.FunBody)
	clear(out.SymLTypes)
	return out
}

// resized returns s cleared and resized to n, reusing its storage
// when the capacity allows.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	clear(s)
	return s[:n]
}

type effKey = string

type funLInfo struct {
	params []*LType // original (pre-restrict) parameter types
	result *LType
	eff    effects.Var // latent effect (post-Down)
	body   effects.Var // body effect (pre-Down)
	keep   effects.Var // parameters ∪ result; (Down) adds Γ(globals) by membership
}

type globalLInfo struct {
	// cell is the storage cell for scalar globals (NoLoc for
	// aggregates, whose storage lives inside content).
	cell    locs.Loc
	content *LType
}

// confCtx is an active confine scope: within it, occurrences of expr
// denote the effectful variable x_π′ of type xT.
type confCtx struct {
	expr ast.Expr
	xT   *LType
	pi   effects.Var
}

type inferencer struct {
	b     *builder
	ls    *locs.Store
	sys   *effects.System
	tinfo *types.Info
	diags *source.Diagnostics
	opts  Options
	res   *Result

	globals  map[string]*globalLInfo
	funs     map[string]*funLInfo
	imported map[string]*LType // shared result type per imported callee
	// envG is ε of the global environment, the system's shared
	// variable: kept once, never copied into a function's keep set,
	// environment chain or a candidate's escape set.
	envG effects.Var

	cur      *funLInfo
	confines []*confCtx
}

func (inf *inferencer) errorf(sp source.Span, format string, args ...any) {
	inf.diags.Errorf(inf.tinfo.Prog.File, sp, "infer", format, args...)
}

func (inf *inferencer) run() {
	prog := inf.tinfo.Prog

	// Globals: build storage once, collect ε_Γ(globals).
	inf.globals = make(map[string]*globalLInfo, len(prog.Globals))
	inf.imported = make(map[string]*LType)
	inf.envG = inf.sys.Fresh("Γ(globals)")
	inf.sys.Shared = inf.envG
	for _, g := range prog.Globals {
		sym := inf.tinfo.Globals[g.Name]
		if sym == nil {
			continue
		}
		gi := &globalLInfo{cell: locs.NoLoc}
		switch sym.Type.(type) {
		case *types.Array, *types.Named:
			gi.content = inf.b.build(sym.Type, modeGlobal, g.Name, nil)
		default:
			gi.cell = inf.ls.FreshStorage(g.Name)
			gi.content = inf.b.build(sym.Type, modePlaceholder, g.Name, nil)
			inf.sys.AddAtom(effects.Atom{Kind: effects.LocAtom, Loc: gi.cell}, inf.envG)
		}
		inf.globals[g.Name] = gi
		inf.res.SymLTypes[sym] = gi.content
		inf.sys.AddVarIncl(gi.content.TVar(), inf.envG)
	}

	// Function signatures (phase A): locate parameter and result
	// types, allocate latent-effect variables.
	inf.funs = make(map[string]*funLInfo, len(prog.Funs))
	for _, f := range prog.Funs {
		sig := inf.tinfo.Funs[f.Name]
		if sig == nil || sig.Decl != f {
			continue
		}
		fi := &funLInfo{
			eff:  inf.sys.FreshN("eff(", f.Name, ")"),
			body: inf.sys.FreshN("body(", f.Name, ")"),
			keep: inf.sys.FreshN("keep(", f.Name, ")"),
		}
		for i, pt := range sig.Params {
			fi.params = append(fi.params, inf.b.build(pt, modePlaceholder, f.Name+"."+f.Params[i].Name, nil))
		}
		fi.result = inf.b.build(sig.Result, modePlaceholder, f.Name+".ret", nil)
		// keep = parameters ∪ result. The globals, the rest of ε_Γf,
		// pass the (Down) gate by membership in the shared Γ(globals).
		for _, p := range fi.params {
			inf.sys.AddVarIncl(p.TVar(), fi.keep)
		}
		inf.sys.AddVarIncl(fi.result.TVar(), fi.keep)
		inf.funs[f.Name] = fi
		inf.res.FunEff[f.Name] = fi.eff
		inf.res.FunBody[f.Name] = fi.body

		// (Down) at the function boundary (Section 3.1), or the
		// ablated direct flow.
		if inf.opts.NoDown {
			inf.sys.AddVarIncl(fi.body, fi.eff)
		} else {
			inf.sys.AddInter(fi.body, fi.keep, fi.eff)
		}
	}

	// Bodies (phase B).
	for _, f := range prog.Funs {
		fi := inf.funs[f.Name]
		if fi == nil {
			continue
		}
		inf.inferFun(f, fi)
	}
}

// extendEnv returns a fresh ε_Γ variable covering env plus t, per the
// incremental ε_Γ scheme of Section 4. A function's chain starts
// empty (NoVar): it covers the function's binders, not the globals.
func (inf *inferencer) extendEnv(env effects.Var, t *LType, what string) effects.Var {
	nv := inf.sys.FreshN("Γ+", what, "")
	if env != effects.NoVar {
		inf.sys.AddVarIncl(env, nv)
	}
	inf.sys.AddVarIncl(t.TVar(), nv)
	return nv
}

func (inf *inferencer) inferFun(f *ast.FunDecl, fi *funLInfo) {
	inf.cur = fi
	env := effects.NoVar

	// Bind parameters: a ref-typed parameter opens a restrict scope
	// over the body when it is restrict-qualified (hard checks) or,
	// under InferRestrictParams, as a candidate.
	for i, p := range f.Params {
		sym := inf.tinfo.BinderOf(p)
		if sym == nil {
			continue
		}
		bound := fi.params[i]
		if bound.Kind() == LRef && (p.Restrict || inf.opts.InferRestrictParams) {
			b, xT := inf.bind(p, CandParam, p.Name, bound, p.Restrict)
			esc := inf.escapeVar(effects.NoVar, fi.params, i, bound, p.Name, b.Explicit)
			inf.scopeChecks(b, fi.body, esc, fi.eff)
			bound = xT
		}
		inf.res.SymLTypes[sym] = bound
		env = inf.extendEnv(env, bound, p.Name)
	}

	inf.walkStmts(f.Body.Stmts, fi.body, env)
	inf.cur = nil
}

// bind mints the fresh ρ′ of the scope n opens over the cell ρ of
// refT and records the binding. It returns the binding and the type
// of the bound copy: a reference to ρ′ with refT's content.
func (inf *inferencer) bind(n ast.Numbered, kind CandKind, name string, refT *LType, explicit bool) (*Binding, *LType) {
	copyName := name + "'"
	b := &Binding{
		Kind:     kind,
		Node:     n,
		Name:     name,
		Site:     n.Span(),
		Rho:      refT.Cell(),
		RhoP:     inf.ls.FreshStorage(copyName),
		Explicit: explicit,
	}
	inf.res.Bindings[n.NodeID()] = b
	return b, inf.b.mkRef(b.RhoP, refT.Elem(), copyName)
}

// escapeVar builds locs(Γ, τ₁, τ₂), the escape set of a scope binding
// a copy of refT: the function's binders in scope (env's chain, or
// for a parameter the function's other parameters, params without
// params[skip]), the content type of refT, and the function result,
// plus Γ(globals) for an explicit binder, whose checks and diagnostics
// name this set. A candidate's escape set leaves the globals out: it
// watches Γ(globals) with a trigger of its own (candidateConds).
func (inf *inferencer) escapeVar(env effects.Var, params []*LType, skip int, refT *LType, name string, explicit bool) effects.Var {
	esc := inf.sys.FreshN("esc(", name, ")")
	if explicit {
		inf.sys.AddVarIncl(inf.envG, esc)
	}
	if env != effects.NoVar {
		inf.sys.AddVarIncl(env, esc)
	}
	for j, q := range params {
		if j != skip {
			inf.sys.AddVarIncl(q.TVar(), esc)
		}
	}
	inf.sys.AddVarIncl(refT.Elem().TVar(), esc)
	if inf.cur != nil {
		inf.sys.AddVarIncl(inf.cur.result.TVar(), esc)
	}
	return esc
}

// checkWords are the reasons a scope's checks give, by kind: the
// explicit alias and escape checks, and a candidate's escape triggers.
var checkWords = [...]struct{ kind, alias, escape, candEscape string }{
	CandLet: {"restrict",
		"an alias of the restricted location is used within its scope",
		"the restricted pointer escapes its scope",
		"restricted pointer escapes its scope"},
	CandParam: {"restrict parameter",
		"an alias of the restricted location is used in the body",
		"the restricted pointer escapes the function",
		"restricted pointer escapes its scope"},
	CandConfine: {"confine",
		"an alias of the confined location is used within its scope",
		"the confined pointer escapes its scope",
		"confined pointer escapes its scope"},
}

// scopeChecks emits the side conditions of the restrict scope b,
// whose body has effect l2 and escape set esc, with the scope's own
// effect landing in sink: hard checks for an explicit scope, the
// let-or-restrict conditionals for a candidate.
func (inf *inferencer) scopeChecks(b *Binding, l2, esc, sink effects.Var) {
	if b.Explicit {
		inf.restrictChecks(b, l2, esc, sink)
		return
	}
	inf.candidateConds(b, l2, esc, sink, []effects.Action{effects.ActUnify{A: b.Rho, B: b.RhoP}})
}

// restrictChecks emits the hard checks of the explicit scope b: ρ is
// not accessed within the scope (ρ ∉ L₂) and ρ′ does not escape it
// (ρ′ ∉ esc). Restricting ρ is itself an effect, which lands in sink:
// strict mode (Figure 2) adds {ρ} unconditionally; liberal mode
// (Section 5, matching C99 and the inference rule) adds it only when
// the restricted copy is used. For a parameter, the strict write(ρ) in
// the latent effect also conservatively covers every access made
// through the restricted copy, so callers' own checks see it without
// conditional relays (keeping restrict-only systems on the Figure 5
// fast path).
func (inf *inferencer) restrictChecks(b *Binding, l2, esc, sink effects.Var) {
	w := checkWords[b.Kind]
	inf.sys.AddNotIn(b.Rho, l2, b.Site, effects.Reason{Kind: w.kind, Name: b.Name, Why: w.alias})
	inf.sys.AddNotIn(b.RhoP, esc, b.Site, effects.Reason{Kind: w.kind, Name: b.Name, Why: w.escape})
	if inf.opts.LiberalRestrictEffect {
		inf.addRelayConds("restrict", b.Name, b.RhoP, l2, b.Rho, sink)
		return
	}
	inf.sys.AddAtom(effects.Atom{Kind: effects.Write, Loc: b.Rho}, sink)
}

// addRelayConds surfaces effects on a restricted copy ρ′ as effects
// on the underlying ρ in out ("X(ρ′) ∈ L₂ ⇒ {X(ρ)} ⊆ π").
func (inf *inferencer) addRelayConds(kind, name string, rhoP locs.Loc, l2 effects.Var, rho locs.Loc, out effects.Var) {
	// One conditional per effect kind, sharing one (unrendered) reason.
	reason := effects.Reason{Kind: kind, Name: name, Why: "effect on restricted copy surfaces on ρ"}
	for _, k := range []effects.Kind{effects.Read, effects.Write, effects.Alloc} {
		inf.sys.AddCond(&effects.Cond{
			Trigger: effects.AtomIn{Kind: k, Loc: rhoP, V: l2},
			Actions: []effects.Action{effects.ActAddAtom{
				A: effects.Atom{Kind: k, Loc: rho}, V: out,
			}},
			Reason: reason,
		})
	}
}

// guard is a candidate trigger with the reason it gives on firing.
type guard struct {
	t   effects.Trigger
	why string
}

// candidateConds emits the conditional constraints of the candidate b
// (Section 5) and lists it among the candidates: when ρ is accessed
// within the scope (L₂), or ρ′ escapes it through esc (which leaves
// out the globals) or through Γ(globals), fail's actions unify ρ and
// ρ′. A confine? adds its referential-transparency triggers in more
// (Section 6.1). (ρ′ ∈ L₂) ⇒ {X(ρ)} ⊆ out is the conditional restrict
// effect.
func (inf *inferencer) candidateConds(b *Binding, l2, esc, out effects.Var, fail []effects.Action, more ...guard) {
	kind := b.Kind.String()
	cond := func(t effects.Trigger, why string) {
		inf.sys.AddCond(&effects.Cond{Trigger: t, Actions: fail,
			Reason: effects.Reason{Kind: kind, Name: b.Name, Why: why}})
	}
	escapes := checkWords[b.Kind].candEscape
	cond(effects.LocIn{Loc: b.Rho, V: l2}, "outer location accessed within the scope")
	cond(effects.LocIn{Loc: b.RhoP, V: esc}, escapes)
	cond(effects.LocIn{Loc: b.RhoP, V: inf.envG}, escapes)
	for _, g := range more {
		cond(g.t, g.why)
	}
	inf.addRelayConds(kind, b.Name, b.RhoP, l2, b.Rho, out)
	inf.res.Candidates = append(inf.res.Candidates, b)
}

// ---------------------------------------------------------------------
// Statements

func (inf *inferencer) walkStmts(stmts []ast.Stmt, sink effects.Var, env effects.Var) {
	for i, s := range stmts {
		switch s := s.(type) {
		case *ast.DeclStmt:
			// The remainder of the block is the binder's scope.
			rest := stmts[i+1:]
			inf.declStmt(s, rest, sink, env)
			return
		default:
			env = inf.stmt(s, sink, env)
		}
	}
}

// declStmt handles "let x = e;" over the remainder scope: a plain
// let, a pre-marked restrict (checking mode), or a let-or-restrict
// candidate (inference mode).
func (inf *inferencer) declStmt(s *ast.DeclStmt, rest []ast.Stmt, sink, env effects.Var) {
	initT := inf.expr(s.Init, sink, env)
	if sym := inf.tinfo.BinderOf(s); sym != nil {
		inf.binderScope(s, sym, s.Name, initT, rest, sink, env,
			s.Restrict, s.Restrict || inf.opts.InferRestrictLets)
	}
}

// bindStmt handles the explicitly scoped binders.
func (inf *inferencer) bindStmt(s *ast.BindStmt, sink, env effects.Var) {
	initT := inf.expr(s.Init, sink, env)
	if sym := inf.tinfo.BinderOf(s); sym != nil {
		restrict := s.Kind == ast.BindRestrict
		inf.binderScope(s, sym, s.Name, initT, s.Body.Stmts, sink, env, restrict, restrict)
	}
}

// binderScope infers body as the scope of the binder n of sym, bound
// to initT. When initT is a reference and restrict holds, the scope is
// the (Restrict) rule of Figure 2: with hard checks when explicit,
// else as a let-or-restrict candidate (Section 5). Otherwise it is
// (Let).
func (inf *inferencer) binderScope(n ast.Numbered, sym *types.Symbol, name string, initT *LType, body []ast.Stmt, sink, env effects.Var, explicit, restrict bool) {
	if !restrict || initT.Kind() != LRef {
		inf.res.SymLTypes[sym] = initT
		inf.walkStmts(body, sink, inf.extendEnv(env, initT, name))
		return
	}
	b, xT := inf.bind(n, CandLet, name, initT, explicit)
	inf.res.SymLTypes[sym] = xT
	l2 := inf.sys.FreshN("L2(", name, ")")
	esc := inf.escapeVar(env, nil, 0, initT, name, explicit)
	inf.walkStmts(body, l2, inf.extendEnv(env, xT, name))
	inf.sys.AddVarIncl(l2, sink)
	inf.scopeChecks(b, l2, esc, sink)
}

// stmt infers one non-binder statement and returns the (possibly
// extended) environment. Only DeclStmt extends environments, and it
// is handled by walkStmts, so env passes through unchanged here.
func (inf *inferencer) stmt(s ast.Stmt, sink, env effects.Var) effects.Var {
	switch s := s.(type) {
	case *ast.BindStmt:
		inf.bindStmt(s, sink, env)
	case *ast.ConfineStmt:
		inf.confineStmt(s, sink, env)
	case *ast.AssignStmt:
		cell, content := inf.place(s.LHS, sink, env)
		rhsT := inf.expr(s.RHS, sink, env)
		if content != nil && content.Kind() == rhsT.Kind() {
			inf.b.site = s.Span()
			inf.b.unify(content, rhsT)
		}
		if cell != locs.NoLoc {
			inf.sys.AddAtom(effects.Atom{Kind: effects.Write, Loc: cell}, sink)
		}
	case *ast.ExprStmt:
		inf.expr(s.X, sink, env)
	case *ast.IfStmt:
		inf.expr(s.Cond, sink, env)
		inf.walkStmts(s.Then.Stmts, sink, env)
		if s.Else != nil {
			inf.walkStmts(s.Else.Stmts, sink, env)
		}
	case *ast.WhileStmt:
		inf.expr(s.Cond, sink, env)
		inf.walkStmts(s.Body.Stmts, sink, env)
	case *ast.ReturnStmt:
		if s.X != nil {
			rt := inf.expr(s.X, sink, env)
			if inf.cur != nil && rt.Kind() == inf.cur.result.Kind() {
				inf.b.site = s.X.Span()
				inf.b.unify(rt, inf.cur.result)
			}
		}
	case *ast.Block:
		inf.walkStmts(s.Stmts, sink, env)
	}
	return env
}

// confineStmt handles "confine e { ... }", explicit or optional
// (confine?).
func (inf *inferencer) confineStmt(s *ast.ConfineStmt, sink, env effects.Var) {
	if call := findCall(s.Expr); call != nil {
		inf.errorf(call.Span(),
			"confined expression %q contains a call; confine requires identifiers, field accesses, indexes and dereferences only (§6.1)",
			ast.ExprString(s.Expr))
	}
	name := ast.ExprString(s.Expr)

	l1 := inf.sys.FreshN("L1(", name, ")")
	e1T := inf.expr(s.Expr, l1, env)
	inf.sys.AddVarIncl(l1, sink)
	if e1T.Kind() != LRef {
		// Standard checking already reported; just walk the body.
		inf.walkStmts(s.Body.Stmts, sink, env)
		return
	}

	b, xT := inf.bind(s, CandConfine, name, e1T, !s.Optional)
	pi := inf.sys.FreshN("π'(", name, ")")
	l2 := inf.sys.FreshN("L2(", name, ")")
	esc := inf.escapeVar(env, nil, 0, e1T, name, b.Explicit)

	inf.confines = append(inf.confines, &confCtx{expr: s.Expr, xT: xT, pi: pi})
	inf.walkStmts(s.Body.Stmts, l2, env)
	inf.confines = inf.confines[:len(inf.confines)-1]
	inf.sys.AddVarIncl(l2, sink)

	if !b.Explicit {
		// A failed confine? leaves e in place, so besides ρ = ρ′ each
		// occurrence recovers e's own effect (L₁ ⊆ π′).
		inf.candidateConds(b, l2, esc, sink,
			[]effects.Action{effects.ActUnify{A: b.Rho, B: b.RhoP}, effects.ActIncl{From: l1, To: pi}},
			guard{effects.KindIn{Kind: effects.Write, V: l1}, "confined expression has a write effect"},
			guard{effects.KindIn{Kind: effects.Alloc, V: l1}, "confined expression has an alloc effect"},
			guard{effects.PairIn{KindA: effects.Read, VA: l1, KindB: effects.Write, VB: l2},
				"a location read by the confined expression is written in the scope"},
			guard{effects.PairIn{KindA: effects.Read, VA: l1, KindB: effects.Alloc, VB: l2},
				"a location read by the confined expression is allocated in the scope"})
		return
	}

	// Explicit confine: hard checks (the confine rule derived from
	// confine? by requiring ρ ≠ ρ′, Section 6.1).
	inf.restrictChecks(b, l2, esc, sink)
	inf.sys.AddKindNotIn(effects.Write, l1, s.Sp,
		effects.Reason{Kind: "confine", Name: name, Why: "the confined expression must have no write effects"})
	inf.sys.AddKindNotIn(effects.Alloc, l1, s.Sp,
		effects.Reason{Kind: "confine", Name: name, Why: "the confined expression must have no alloc effects"})
	inf.sys.AddPairNotIn(effects.Read, l1, effects.Write, l2, s.Sp,
		effects.Reason{Kind: "confine", Name: name, Why: "a location it reads is written within the scope"})
	inf.sys.AddPairNotIn(effects.Read, l1, effects.Alloc, l2, s.Sp,
		effects.Reason{Kind: "confine", Name: name, Why: "a location it reads is allocated within the scope"})
}

// findCall returns the first call expression within e, or nil.
func findCall(e ast.Expr) ast.Expr {
	var hit ast.Expr
	ast.Inspect(e, func(n ast.Node) bool {
		if hit != nil {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok {
			hit = c
			return false
		}
		return true
	})
	return hit
}
