package types

import (
	"localalias/internal/ast"
	"localalias/internal/source"
	"localalias/internal/token"
)

// Check runs the standard type checker over prog, recording errors in
// diags and returning the collected Info. The Info is usable (best
// effort) even when errors were reported; callers should consult
// diags.HasErrors before running later phases.
func Check(prog *ast.Program, diags *source.Diagnostics) *Info {
	return CheckWith(prog, diags, nil)
}

// CheckWith is Check with cross-module import resolution: imports
// supplies the exported surface of every module this one may import.
// Import declarations naming packages absent from the map get a
// positioned "package not found" error; qualified calls pkg.fn(...)
// are checked against the imported signatures.
func CheckWith(prog *ast.Program, diags *source.Diagnostics, imports ImportSigs) *Info {
	// Confine inference plants clones into the checked program and
	// extends the node tables to cover them (Info.Extend). On the
	// corpus that adds at most 22% more nodes, so the tables get a
	// quarter of headroom to grow into without being copied.
	n := prog.NumNodes
	c := &checker{
		info: &Info{
			Prog:      prog,
			ExprTypes: make([]Type, n, n+n/4),
			Uses:      make([]*Symbol, n, n+n/4),
			Binders:   make([]*Symbol, n, n+n/4),
			Funs:      Builtins(),
			Structs:   make(map[string]*ast.StructDecl),
			Globals:   make(map[string]*Symbol),
			Imports:   make(map[string]*PkgSig),
		},
		diags:   diags,
		file:    prog.File,
		imports: imports,
	}
	c.collect(prog)
	for _, f := range prog.Funs {
		c.checkFun(f)
	}
	return c.info
}

type checker struct {
	info    *Info
	diags   *source.Diagnostics
	file    *source.File
	imports ImportSigs

	scopes []map[string]*Symbol
	cur    *FunSig // function being checked
}

func (c *checker) errorf(sp source.Span, format string, args ...any) {
	c.diags.Errorf(c.file, sp, "types", format, args...)
}

// ---------------------------------------------------------------------
// Declaration collection

func (c *checker) collect(prog *ast.Program) {
	for _, im := range prog.Imports {
		if _, dup := c.info.Imports[im.Path]; dup {
			c.errorf(im.Sp, "duplicate import %q", im.Path)
			continue
		}
		ps := c.imports[im.Path]
		if ps == nil {
			c.errorf(im.Sp, "cannot resolve import %q: package not found", im.Path)
		}
		c.info.Imports[im.Path] = ps
	}
	for _, s := range prog.Structs {
		if _, dup := c.info.Structs[s.Name]; dup {
			c.errorf(s.Sp, "struct %q redeclared", s.Name)
			continue
		}
		c.info.Structs[s.Name] = s
	}
	// Validate struct fields and by-value containment cycles.
	for _, s := range prog.Structs {
		seen := map[string]bool{}
		for _, f := range s.Fields {
			if seen[f.Name] {
				c.errorf(f.Sp, "field %q redeclared in struct %q", f.Name, s.Name)
			}
			seen[f.Name] = true
			c.resolveType(f.Type)
		}
	}
	for _, s := range prog.Structs {
		c.checkContainment(s, map[string]bool{})
	}
	for _, g := range prog.Globals {
		if _, dup := c.info.Globals[g.Name]; dup {
			c.errorf(g.Sp, "global %q redeclared", g.Name)
			continue
		}
		t := c.resolveType(g.Type)
		if IsUnit(t) {
			c.errorf(g.Sp, "global %q cannot have type unit", g.Name)
		}
		sym := &Symbol{Name: g.Name, Kind: SymGlobal, Type: t, Def: g}
		c.info.Globals[g.Name] = sym
		c.bind(g, sym)
	}
	for _, f := range prog.Funs {
		if sig, dup := c.info.Funs[f.Name]; dup {
			if sig.Builtin {
				c.errorf(f.Sp, "function %q conflicts with a builtin", f.Name)
			} else {
				c.errorf(f.Sp, "function %q redeclared", f.Name)
			}
			continue
		}
		sig := &FunSig{Decl: f, Name: f.Name, Result: UnitType}
		for _, p := range f.Params {
			pt := c.resolveType(p.Type)
			if !IsScalar(pt) {
				c.errorf(p.Sp, "parameter %q must have a scalar type (int or ref), not %s",
					p.Name, pt)
			}
			if p.Restrict {
				if _, isRef := pt.(*Ref); !isRef {
					c.errorf(p.Sp, "restrict-qualified parameter %q must be a pointer, not %s",
						p.Name, pt)
				}
			}
			sig.Params = append(sig.Params, pt)
		}
		if f.Result != nil {
			rt := c.resolveType(f.Result)
			if !IsScalar(rt) && !IsUnit(rt) {
				c.errorf(f.Result.Span(), "result type must be scalar or unit, not %s", rt)
			}
			sig.Result = rt
		}
		c.info.Funs[f.Name] = sig
	}
}

// checkContainment rejects structs that contain themselves by value.
func (c *checker) checkContainment(s *ast.StructDecl, onPath map[string]bool) {
	if onPath[s.Name] {
		c.errorf(s.Sp, "struct %q contains itself by value", s.Name)
		return
	}
	onPath[s.Name] = true
	defer delete(onPath, s.Name)
	for _, f := range s.Fields {
		t := f.Type
		for {
			if at, ok := t.(*ast.ArrayType); ok {
				t = at.Elem
				continue
			}
			break
		}
		if nt, ok := t.(*ast.NamedType); ok {
			if inner := c.info.Structs[nt.Name]; inner != nil {
				c.checkContainment(inner, onPath)
			}
		}
	}
}

// resolveType converts a syntactic type to a semantic one, reporting
// unknown struct names.
func (c *checker) resolveType(t ast.TypeExpr) Type {
	switch t := t.(type) {
	case *ast.PrimType:
		switch t.Kind {
		case ast.PrimInt:
			return IntType
		case ast.PrimUnit:
			return UnitType
		case ast.PrimLock:
			return LockType
		}
	case *ast.NamedType:
		if s := c.info.Structs[t.Name]; s != nil {
			return &Named{Decl: s}
		}
		c.errorf(t.Sp, "unknown type %q", t.Name)
		return IntType
	case *ast.RefType:
		return &Ref{Elem: c.resolveType(t.Elem)}
	case *ast.ArrayType:
		return &Array{Elem: c.resolveType(t.Elem), Size: t.Size}
	}
	return IntType
}

// ---------------------------------------------------------------------
// Scopes

func (c *checker) push() { c.scopes = append(c.scopes, map[string]*Symbol{}) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(sym *Symbol, sp source.Span) {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[sym.Name]; dup {
		c.errorf(sp, "%q redeclared in this scope", sym.Name)
	}
	top[sym.Name] = sym
}

func (c *checker) lookup(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if sym, ok := c.scopes[i][name]; ok {
			return sym
		}
	}
	return c.info.Globals[name]
}

// ---------------------------------------------------------------------
// Functions and statements

func (c *checker) checkFun(f *ast.FunDecl) {
	sig := c.info.Funs[f.Name]
	if sig == nil || sig.Decl != f {
		// Redeclared, which is already reported: the body is not
		// checked, but its calls still count in the lock facts.
		ast.Inspect(f.Body, func(n ast.Node) bool {
			if e, ok := n.(*ast.CallExpr); ok {
				c.recordCall(e)
			}
			return true
		})
		return
	}
	c.cur = sig
	c.push()
	for i, p := range f.Params {
		sym := &Symbol{Name: p.Name, Kind: SymParam, Type: sig.Params[i], Def: p}
		c.declare(sym, p.Sp)
		c.bind(p, sym)
	}
	c.checkBlock(f.Body)
	c.pop()
	c.cur = nil
}

func (c *checker) checkBlock(b *ast.Block) {
	c.push()
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
	c.pop()
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.DeclStmt:
		t := c.checkExpr(s.Init)
		if s.Restrict {
			if _, ok := t.(*Ref); !ok {
				c.errorf(s.Init.Span(), "restrict initializer must be a pointer, not %s", t)
			}
		} else if !IsScalar(t) {
			c.errorf(s.Init.Span(), "let initializer must be a scalar value (int or ref), not %s", t)
			t = IntType
		}
		sym := &Symbol{Name: s.Name, Kind: SymLet, Type: t, Def: s}
		c.declare(sym, s.Sp)
		c.bind(s, sym)

	case *ast.BindStmt:
		t := c.checkExpr(s.Init)
		if s.Kind == ast.BindRestrict {
			if _, ok := t.(*Ref); !ok {
				c.errorf(s.Init.Span(), "restrict initializer must be a pointer, not %s", t)
			}
		} else if !IsScalar(t) {
			c.errorf(s.Init.Span(), "let initializer must be a scalar value, not %s", t)
			t = IntType
		}
		sym := &Symbol{Name: s.Name, Kind: SymLet, Type: t, Def: s}
		c.bind(s, sym)
		c.push()
		c.declare(sym, s.Sp)
		c.checkBlock(s.Body)
		c.pop()

	case *ast.ConfineStmt:
		t := c.checkExpr(s.Expr)
		if _, ok := t.(*Ref); !ok {
			c.errorf(s.Expr.Span(), "confined expression must be a pointer, not %s", t)
		}
		c.checkBlock(s.Body)

	case *ast.AssignStmt:
		lt, ok := c.checkPlace(s.LHS)
		if ok {
			if IsLock(lt) {
				c.errorf(s.LHS.Span(), "lock storage cannot be assigned; locks are handled by address")
			} else if !IsScalar(lt) {
				c.errorf(s.LHS.Span(), "cannot assign whole %s storage", lt)
			}
		}
		rt := c.checkExpr(s.RHS)
		if ok && IsScalar(lt) && !Equal(lt, rt) {
			c.errorf(s.Sp, "cannot assign %s to %s", rt, lt)
		}

	case *ast.ExprStmt:
		c.checkExpr(s.X)

	case *ast.IfStmt:
		ct := c.checkExpr(s.Cond)
		if !Equal(ct, IntType) {
			c.errorf(s.Cond.Span(), "condition must be int, not %s", ct)
		}
		c.checkBlock(s.Then)
		if s.Else != nil {
			c.checkBlock(s.Else)
		}

	case *ast.WhileStmt:
		ct := c.checkExpr(s.Cond)
		if !Equal(ct, IntType) {
			c.errorf(s.Cond.Span(), "condition must be int, not %s", ct)
		}
		c.checkBlock(s.Body)

	case *ast.ReturnStmt:
		var want Type = UnitType
		if c.cur != nil {
			want = c.cur.Result
		}
		if s.X == nil {
			if !IsUnit(want) {
				c.errorf(s.Sp, "missing return value (function returns %s)", want)
			}
			return
		}
		got := c.checkExpr(s.X)
		if IsUnit(want) {
			c.errorf(s.Sp, "unexpected return value in unit function")
		} else if !Equal(got, want) {
			c.errorf(s.Sp, "cannot return %s from function returning %s", got, want)
		}

	case *ast.Block:
		c.checkBlock(s)
	}
}

// ---------------------------------------------------------------------
// Expressions

// checkExpr types e as a first-class value. Place expressions are
// checked as reads: their content type must be scalar.
func (c *checker) checkExpr(e ast.Expr) Type {
	t := c.exprOrPlace(e, false)
	return t
}

// checkPlace types e as a place (lvalue). The returned bool is false
// when e is not a place at all (already reported).
func (c *checker) checkPlace(e ast.Expr) (Type, bool) {
	if !isPlaceForm(e, c) {
		c.errorf(e.Span(), "expression is not assignable/addressable storage")
		c.exprOrPlace(e, false)
		return IntType, false
	}
	return c.exprOrPlace(e, true), true
}

// isPlaceForm reports whether e is syntactically a place: a global
// variable, a dereference, an index, or a field access.
func isPlaceForm(e ast.Expr, c *checker) bool {
	switch e := e.(type) {
	case *ast.VarExpr:
		// Resolved variables are handled by the checker proper, which
		// reports the precise "bound value, not storage" error for
		// params and lets.
		return c.lookup(e.Name) != nil
	case *ast.DerefExpr, *ast.IndexExpr, *ast.FieldExpr:
		return true
	default:
		return false
	}
}

// exprOrPlace is the single recursive checker. asPlace selects place
// typing for the outermost node: the result is the content type of
// the storage rather than a value, and reads of non-scalar content
// are not rejected.
func (c *checker) exprOrPlace(e ast.Expr, asPlace bool) Type {
	t := c.exprOrPlace1(e, asPlace)
	c.setType(e.NodeID(), t)
	return t
}

func (c *checker) setType(id ast.NodeID, t Type) {
	if c.info.ExprTypes[id] == nil {
		c.info.Typed++
	}
	c.info.ExprTypes[id] = t
}

func (c *checker) bind(n ast.Numbered, sym *Symbol) {
	c.info.Binders[n.NodeID()] = sym
	c.info.NumBinders++
}

func (c *checker) exprOrPlace1(e ast.Expr, asPlace bool) Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return IntType

	case *ast.VarExpr:
		sym := c.lookup(e.Name)
		if sym == nil {
			if _, isFun := c.info.Funs[e.Name]; isFun {
				c.errorf(e.Sp, "function %q used as a value (MiniC has no function pointers)", e.Name)
			} else {
				c.errorf(e.Sp, "undefined name %q", e.Name)
			}
			return IntType
		}
		c.info.Uses[e.ID] = sym
		if sym.Kind == SymGlobal {
			// A global is storage: as a value it is a read of the
			// cell, which must hold a scalar.
			if !asPlace && !IsScalar(sym.Type) {
				c.errorf(e.Sp, "%s global %q can only be indexed, selected or addressed",
					sym.Type, e.Name)
			}
			return sym.Type
		}
		if asPlace {
			c.errorf(e.Sp, "%s %q is a bound value, not storage; it cannot be assigned or addressed",
				sym.Kind, e.Name)
		}
		return sym.Type

	case *ast.NewExpr:
		// "new S" where S names a struct allocates an instance.
		if v, ok := e.Init.(*ast.VarExpr); ok {
			if sd := c.info.Structs[v.Name]; sd != nil {
				c.setType(v.ID, &Named{Decl: sd})
				return &Ref{Elem: &Named{Decl: sd}}
			}
		}
		it := c.checkExpr(e.Init)
		if !IsScalar(it) {
			c.errorf(e.Init.Span(), "new initializer must be a scalar value, not %s", it)
			it = IntType
		}
		return &Ref{Elem: it}

	case *ast.DerefExpr:
		xt := c.checkExpr(e.X)
		rt, ok := xt.(*Ref)
		if !ok {
			c.errorf(e.Sp, "cannot dereference %s", xt)
			return IntType
		}
		if !asPlace && !IsScalar(rt.Elem) {
			c.errorf(e.Sp, "cannot read %s storage as a value", rt.Elem)
		}
		return rt.Elem

	case *ast.AddrExpr:
		ct, ok := c.checkPlace(e.X)
		if !ok {
			return &Ref{Elem: IntType}
		}
		if _, isArr := ct.(*Array); isArr {
			c.errorf(e.Sp, "cannot take the address of whole array storage; address an element")
		}
		return &Ref{Elem: ct}

	case *ast.IndexExpr:
		xt, ok := c.checkPlace(e.X)
		it := c.checkExpr(e.Index)
		if !Equal(it, IntType) {
			c.errorf(e.Index.Span(), "array index must be int, not %s", it)
		}
		if !ok {
			return IntType
		}
		at, isArr := xt.(*Array)
		if !isArr {
			c.errorf(e.Sp, "cannot index %s", xt)
			return IntType
		}
		if !asPlace && !IsScalar(at.Elem) {
			c.errorf(e.Sp, "cannot read %s element as a value", at.Elem)
		}
		return at.Elem

	case *ast.FieldExpr:
		var st Type
		if e.Arrow {
			xt := c.checkExpr(e.X)
			rt, ok := xt.(*Ref)
			if !ok {
				c.errorf(e.Sp, "-> requires a pointer, got %s", xt)
				return IntType
			}
			st = rt.Elem
		} else {
			var ok bool
			st, ok = c.checkPlace(e.X)
			if !ok {
				return IntType
			}
		}
		nt, ok := st.(*Named)
		if !ok {
			c.errorf(e.Sp, "field access on non-struct %s", st)
			return IntType
		}
		for _, f := range nt.Decl.Fields {
			if f.Name == e.Name {
				ft := c.resolveType(f.Type)
				if !asPlace && !IsScalar(ft) {
					c.errorf(e.Sp, "cannot read %s field as a value", ft)
				}
				return ft
			}
		}
		c.errorf(e.Sp, "struct %q has no field %q", nt.Decl.Name, e.Name)
		return IntType

	case *ast.BinExpr:
		xt := c.checkExpr(e.X)
		yt := c.checkExpr(e.Y)
		switch e.Op {
		case token.Eq, token.NotEq:
			if !Equal(xt, yt) {
				c.errorf(e.Sp, "mismatched comparison: %s %s %s", xt, e.Op, yt)
			} else if !IsScalar(xt) {
				c.errorf(e.Sp, "cannot compare %s values", xt)
			}
			return IntType
		default:
			if !Equal(xt, IntType) {
				c.errorf(e.X.Span(), "operator %s requires int, got %s", e.Op, xt)
			}
			if !Equal(yt, IntType) {
				c.errorf(e.Y.Span(), "operator %s requires int, got %s", e.Op, yt)
			}
			return IntType
		}

	case *ast.UnExpr:
		xt := c.checkExpr(e.X)
		if !Equal(xt, IntType) {
			c.errorf(e.X.Span(), "operator %s requires int, got %s", e.Op, xt)
		}
		return IntType

	case *ast.CallExpr:
		var sig *FunSig
		if pkg, name, ok := ast.SplitQualified(e.Fun); ok {
			sig = c.importedSig(e, pkg, name)
		} else {
			sig = c.recordCall(e)
			if sig == nil {
				c.errorf(e.Sp, "call to undefined function %q", e.Fun)
			}
		}
		if sig == nil {
			for _, a := range e.Args {
				c.checkExpr(a)
			}
			return IntType
		}
		if len(e.Args) != len(sig.Params) {
			c.errorf(e.Sp, "%q expects %d argument(s), got %d", e.Fun, len(sig.Params), len(e.Args))
		}
		for i, a := range e.Args {
			at := c.checkExpr(a)
			if i < len(sig.Params) && !Equal(at, sig.Params[i]) {
				c.errorf(a.Span(), "argument %d of %q: cannot use %s as %s",
					i+1, e.Fun, at, sig.Params[i])
			}
		}
		return sig.Result

	default:
		c.errorf(e.Span(), "unsupported expression %T", e)
		return IntType
	}
}

// recordCall adds the unqualified call e to the lock facts
// (Info.LockSites, FunSig.Called) and returns the signature it
// resolves to, or nil.
func (c *checker) recordCall(e *ast.CallExpr) *FunSig {
	if IsLockOp(e.Fun) {
		c.info.LockSites++
	}
	sig := c.info.Funs[e.Fun]
	if sig != nil {
		sig.Called = true
	}
	return sig
}

// importedSig resolves a qualified call pkg.name against the declared
// imports, reporting positioned errors for undeclared packages and
// unknown exported functions. Failed import resolution is reported at
// the import declaration, not again at every call site.
func (c *checker) importedSig(e *ast.CallExpr, pkg, name string) *FunSig {
	if c.info.Prog.Import(pkg) == nil {
		c.errorf(e.Sp, "call to %q: package %q is not imported", e.Fun, pkg)
		return nil
	}
	ps := c.info.Imports[pkg]
	if ps == nil {
		return nil
	}
	sig := ps.Funs[name]
	if sig == nil {
		c.errorf(e.Sp, "package %q has no exported function %q", pkg, name)
		return nil
	}
	return sig
}

// FieldType resolves the declared type of field name in struct decl
// (nil if absent). Exposed for later phases.
func (in *Info) FieldType(decl *ast.StructDecl, name string) Type {
	for _, f := range decl.Fields {
		if f.Name == name {
			return resolveTypeIn(in, f.Type)
		}
	}
	return nil
}

func resolveTypeIn(in *Info, t ast.TypeExpr) Type {
	switch t := t.(type) {
	case *ast.PrimType:
		switch t.Kind {
		case ast.PrimInt:
			return IntType
		case ast.PrimUnit:
			return UnitType
		case ast.PrimLock:
			return LockType
		}
	case *ast.NamedType:
		if s := in.Structs[t.Name]; s != nil {
			return &Named{Decl: s}
		}
	case *ast.RefType:
		return &Ref{Elem: resolveTypeIn(in, t.Elem)}
	case *ast.ArrayType:
		return &Array{Elem: resolveTypeIn(in, t.Elem), Size: t.Size}
	}
	return IntType
}
