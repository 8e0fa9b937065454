package infer

import (
	"localalias/internal/ast"
	"localalias/internal/effects"
	"localalias/internal/locs"
	"localalias/internal/types"
)

// mkRef creates a fresh ref node over an existing content type.
func (b *builder) mkRef(cell locs.Loc, elem *LType, name string) *LType {
	n := b.newNode(LRef, name)
	n.cell = cell
	n.elem = elem
	b.sys.AddAtom(effects.Atom{Kind: effects.LocAtom, Loc: cell}, n.tvar)
	b.sys.AddVarIncl(elem.TVar(), n.tvar)
	return n
}

// matchesConfined reports whether e is an occurrence of the confined
// expression pat (syntactic equality with symbol-resolved variables;
// see types.Info.EqualResolved).
func (inf *inferencer) matchesConfined(e, pat ast.Expr) bool {
	return inf.tinfo.EqualResolved(e, pat)
}

// expr infers the located type of e, adding its evaluation effects to
// sink. The result is also recorded in Result.LTypes.
func (inf *inferencer) expr(e ast.Expr, sink effects.Var, env effects.Var) *LType {
	// Active confine scopes: occurrences of the confined expression
	// denote the effectful variable x_π′ (innermost first).
	for i := len(inf.confines) - 1; i >= 0; i-- {
		ctx := inf.confines[i]
		if inf.matchesConfined(e, ctx.expr) {
			inf.sys.AddVarIncl(ctx.pi, sink)
			inf.res.LTypes[e.NodeID()] = ctx.xT
			return ctx.xT
		}
	}
	t := inf.expr1(e, sink, env)
	inf.res.LTypes[e.NodeID()] = t
	return t
}

func (inf *inferencer) expr1(e ast.Expr, sink effects.Var, env effects.Var) *LType {
	switch e := e.(type) {
	case *ast.IntLit:
		return inf.b.intT

	case *ast.VarExpr:
		sym := inf.tinfo.UseOf(e)
		if sym == nil {
			return inf.b.intT
		}
		if sym.Kind == types.SymGlobal {
			gi := inf.globals[sym.Name]
			if gi == nil {
				return inf.b.intT
			}
			// A scalar global used as a value reads its cell.
			if gi.cell != locs.NoLoc {
				inf.sys.AddAtom(effects.Atom{Kind: effects.Read, Loc: gi.cell}, sink)
			}
			return gi.content
		}
		if lt := inf.res.SymLTypes[sym]; lt != nil {
			return lt
		}
		return inf.b.intT

	case *ast.NewExpr:
		if sd := inf.tinfo.StructAllocOf(e); sd != nil {
			// Heap struct allocation: fresh instance whose cells are
			// conservatively multi (a new-site may execute many
			// times); alloc effects on the storage the instantiation
			// created. The ref's own cell is a placeholder naming the
			// instance — field storage lives in the instance's field
			// cells.
			before := len(inf.b.cellsMade)
			instT := inf.b.build(&types.Named{Decl: sd}, modeHeap,
				"new "+sd.Name, nil)
			for _, c := range inf.b.cellsMade[before:] {
				if inf.ls.InfoOf(c).Origins > 0 {
					inf.sys.AddAtom(effects.Atom{Kind: effects.Alloc, Loc: c}, sink)
				}
			}
			return inf.b.mkRef(inf.ls.Fresh("&"+sd.Name), instT, "new "+sd.Name)
		}
		initT := inf.expr(e.Init, sink, env)
		rho := inf.ls.FreshStorage("new@" + posOf(inf, e))
		inf.ls.MarkMulti(rho)
		inf.sys.AddAtom(effects.Atom{Kind: effects.Alloc, Loc: rho}, sink)
		return inf.b.mkRef(rho, initT, "new")

	case *ast.DerefExpr:
		xT := inf.expr(e.X, sink, env)
		if xT.Kind() != LRef {
			return inf.b.intT
		}
		inf.sys.AddAtom(effects.Atom{Kind: effects.Read, Loc: xT.Cell()}, sink)
		return xT.Elem()

	case *ast.AddrExpr:
		cell, content := inf.place(e.X, sink, env)
		if content == nil {
			return inf.b.mkRef(inf.ls.Fresh("&?"), inf.b.intT, "&?")
		}
		if cell == locs.NoLoc {
			// Addressing aggregate storage (a struct global): the
			// pointer's cell is a placeholder naming the instance;
			// field storage lives in the instance's field cells.
			cell = inf.ls.Fresh("&" + ast.ExprString(e.X))
		}
		return inf.b.mkRef(cell, content, "&"+ast.ExprString(e.X))

	case *ast.IndexExpr, *ast.FieldExpr:
		cell, content := inf.place(e, sink, env)
		if content == nil {
			return inf.b.intT
		}
		if cell != locs.NoLoc {
			inf.sys.AddAtom(effects.Atom{Kind: effects.Read, Loc: cell}, sink)
		}
		return content

	case *ast.BinExpr:
		inf.expr(e.X, sink, env)
		inf.expr(e.Y, sink, env)
		return inf.b.intT

	case *ast.UnExpr:
		inf.expr(e.X, sink, env)
		return inf.b.intT

	case *ast.CallExpr:
		return inf.call(e, sink, env)

	default:
		return inf.b.intT
	}
}

func posOf(inf *inferencer, e ast.Expr) string {
	if inf.tinfo.Prog.File == nil {
		return "?"
	}
	return inf.tinfo.Prog.File.Position(e.Span().Start).String()
}

// call infers a builtin or user call.
func (inf *inferencer) call(e *ast.CallExpr, sink effects.Var, env effects.Var) *LType {
	if types.IsLockOp(e.Fun) {
		if len(e.Args) == 1 {
			at := inf.expr(e.Args[0], sink, env)
			if at.Kind() == LRef {
				// The change_type builtins update the resource's
				// state: a write effect on its cell.
				inf.sys.AddAtom(effects.Atom{Kind: effects.Write, Loc: at.Cell()}, sink)
			}
		}
		return inf.b.unitT
	}
	switch e.Fun {
	case "work":
		return inf.b.unitT
	case "print":
		for _, a := range e.Args {
			inf.expr(a, sink, env)
		}
		return inf.b.unitT
	}
	if _, _, ok := ast.SplitQualified(e.Fun); ok {
		return inf.importedCall(e, sink, env)
	}
	fi := inf.funs[e.Fun]
	if fi == nil {
		for _, a := range e.Args {
			inf.expr(a, sink, env)
		}
		return inf.b.intT
	}
	for i, a := range e.Args {
		at := inf.expr(a, sink, env)
		if i < len(fi.params) && at.Kind() == fi.params[i].Kind() {
			inf.b.site = a.Span()
			inf.b.unify(at, fi.params[i])
		}
	}
	// The call has the callee's latent effect.
	inf.sys.AddVarIncl(fi.eff, sink)
	return fi.result
}

// importedCall infers a call into another module (pkg.fn). The
// callee's body is unavailable, so its latent effect is stood in for
// either by the effect signature the cross-module pass supplied
// (Options.ImportEffects) or by worst-case havoc. In both cases the
// argument types themselves join the sink, so restrict/confine scopes
// treat the call as an escape point for anything reachable from the
// arguments — the callee may retain aliases in its own globals.
func (inf *inferencer) importedCall(e *ast.CallExpr, sink effects.Var, env effects.Var) *LType {
	masks, haveSig := inf.opts.ImportEffects[e.Fun]
	for i, a := range e.Args {
		at := inf.expr(a, sink, env)
		if at.Kind() != LRef {
			continue
		}
		inf.sys.AddVarIncl(at.TVar(), sink)
		mask := effects.HavocMask
		if haveSig {
			mask = 0
			if i < len(masks) {
				mask = masks[i]
			}
		}
		for _, cell := range effCells(at, nil, nil) {
			for _, k := range [...]effects.Kind{effects.Read, effects.Write, effects.Alloc} {
				if mask.Has(k) {
					inf.sys.AddAtom(effects.Atom{Kind: k, Loc: cell}, sink)
				}
			}
		}
	}
	// Result storage is shared per callee: two calls to the same
	// imported function may alias through their results.
	rt := inf.imported[e.Fun]
	if rt == nil {
		var sig *types.FunSig
		if pkg, name, ok := ast.SplitQualified(e.Fun); ok {
			if ps := inf.tinfo.Imports[pkg]; ps != nil {
				sig = ps.Funs[name]
			}
		}
		if sig == nil {
			rt = inf.b.intT
		} else {
			rt = inf.b.build(sig.Result, modeHeap, e.Fun+".ret", nil)
		}
		inf.imported[e.Fun] = rt
	}
	return rt
}

// ParamCells returns the canonical storage cells reachable from
// formal i of function f — the locations a caller's argument exposes
// to the callee. For restrict formals both the outer ρ and the bound
// copy ρ′ are included, so effect masks computed against the solved
// latent effect cover accesses made through either.
func (r *Result) ParamCells(f *ast.FunDecl, i int) []locs.Loc {
	if i >= len(f.Params) {
		return nil
	}
	p := f.Params[i]
	var out []locs.Loc
	if b := r.BindingOf(p); b != nil {
		out = append(out, r.Locs.Find(b.Rho), r.Locs.Find(b.RhoP))
	}
	sym := r.TInfo.BinderOf(p)
	if sym != nil {
		for _, c := range effCells(r.SymLTypes[sym], nil, nil) {
			out = append(out, r.Locs.Find(c))
		}
	}
	return out
}

// effCells collects the storage cells reachable from t — the cells a
// callee receiving a value of type t could touch.
func effCells(t *LType, out []locs.Loc, seen map[*LType]bool) []locs.Loc {
	if t == nil {
		return out
	}
	t = t.find()
	if seen[t] {
		return out
	}
	if seen == nil {
		seen = make(map[*LType]bool)
	}
	seen[t] = true
	switch t.kind {
	case LRef, LArray:
		if t.cell != locs.NoLoc {
			out = append(out, t.cell)
		}
		out = effCells(t.elem, out, seen)
	case LStruct:
		for i := range t.fields {
			if t.fcells[i] != locs.NoLoc {
				out = append(out, t.fcells[i])
			}
			out = effCells(t.fields[i], out, seen)
		}
	}
	return out
}

// place infers e as a place, returning its storage cell and content
// type. Index/selector subexpressions contribute their evaluation
// effects to sink; addressing itself has no effect.
func (inf *inferencer) place(e ast.Expr, sink effects.Var, env effects.Var) (locs.Loc, *LType) {
	cell, content := inf.place1(e, sink, env)
	if content != nil {
		inf.res.LTypes[e.NodeID()] = content
	}
	return cell, content
}

func (inf *inferencer) place1(e ast.Expr, sink effects.Var, env effects.Var) (locs.Loc, *LType) {
	// Confined occurrences are values, not places; but a place
	// subexpression can itself be an occurrence (e.g. (*p).f where
	// *p is confined? — *p is not a bare place under confine, the
	// whole of e is matched first by expr()).
	switch e := e.(type) {
	case *ast.VarExpr:
		sym := inf.tinfo.UseOf(e)
		if sym == nil || sym.Kind != types.SymGlobal {
			return locs.NoLoc, nil
		}
		gi := inf.globals[sym.Name]
		if gi == nil {
			return locs.NoLoc, nil
		}
		return gi.cell, gi.content

	case *ast.DerefExpr:
		xT := inf.expr(e.X, sink, env)
		if xT.Kind() != LRef {
			return locs.NoLoc, nil
		}
		return xT.Cell(), xT.Elem()

	case *ast.IndexExpr:
		_, xContent := inf.place(e.X, sink, env)
		inf.expr(e.Index, sink, env)
		if xContent == nil || xContent.Kind() != LArray {
			return locs.NoLoc, nil
		}
		return xContent.Cell(), xContent.Elem()

	case *ast.FieldExpr:
		var sT *LType
		if e.Arrow {
			xT := inf.expr(e.X, sink, env)
			if xT.Kind() != LRef {
				return locs.NoLoc, nil
			}
			sT = xT.Elem()
		} else {
			_, sT = inf.place(e.X, sink, env)
		}
		if sT == nil || sT.Kind() != LStruct {
			return locs.NoLoc, nil
		}
		st := sT.find()
		for i, f := range st.decl.Fields {
			if f.Name == e.Name {
				return st.fcells[i], st.fields[i]
			}
		}
		return locs.NoLoc, nil

	default:
		return locs.NoLoc, nil
	}
}
