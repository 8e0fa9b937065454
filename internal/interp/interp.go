// Package interp is a big-step interpreter for MiniC implementing the
// operational semantics of Section 3.2, including the err-poisoning
// model of restrict:
//
//	restrict x = e1 in e2: evaluate e1 to a location l, allocate a
//	fresh location l' holding a copy of l's contents, poison l (any
//	access through it reduces to err), bind x to l', evaluate e2,
//	then write l''s contents back to l and poison l'.
//
// confine e1 in e2 evaluates by its defining translation: occurrences
// of e1 inside e2 denote the bound copy.
//
// Evaluation distinguishes two failure classes:
//
//   - RestrictErr is the paper's err: an access through a poisoned
//     location. Theorem 1 states well-typed (checker-accepted)
//     programs never produce it; package interp's property tests
//     exercise exactly that.
//   - Trap covers ordinary runtime misbehaviour the type system does
//     not rule out: out-of-bounds indexes, division by zero, step
//     budget exhaustion, and runtime lock misuse (double acquire /
//     double release), which the driver corpus uses to validate that
//     its "real bug" modules really misbehave.
package interp

import (
	"fmt"
	"io"
	"strings"

	"localalias/internal/ast"
	"localalias/internal/source"
	"localalias/internal/token"
	"localalias/internal/types"
)

// RestrictErr is the paper's err value surfacing as a Go error.
type RestrictErr struct {
	At  source.Span
	Msg string
}

func (e *RestrictErr) Error() string { return "err: " + e.Msg }

// Trap is a runtime fault outside the restrict semantics.
type Trap struct {
	At  source.Span
	Msg string
}

func (e *Trap) Error() string { return "trap: " + e.Msg }

// Value is a runtime value: int64, unitValue, or *Ref.
type Value interface{}

type unitValue struct{}

// Unit is the unit value.
var Unit Value = unitValue{}

// storage is runtime storage: a *Cell, *ArrayStor or *StructStor.
type storage interface{ stor() }

// Cell is one mutable slot. Poisoned cells are the paper's err-bound
// locations.
type Cell struct {
	V        Value
	Poisoned bool
	// Held tracks lock state for lock cells (V stays Unit).
	Held bool
}

// ArrayStor is a block of element storage.
type ArrayStor struct{ Elems []storage }

// StructStor is per-field storage.
type StructStor struct {
	Decl   *ast.StructDecl
	Fields map[string]storage
}

func (*Cell) stor()       {}
func (*ArrayStor) stor()  {}
func (*StructStor) stor() {}

// Ref is a pointer value to some storage.
type Ref struct{ S storage }

// Interp evaluates one module.
type Interp struct {
	tinfo *types.Info
	out   io.Writer

	globals map[string]storage

	// Steps is the remaining step budget.
	Steps int

	// LockEvents counts successful lock/unlock operations (used by
	// corpus validation).
	LockEvents int

	confines []*confBinding
}

type confBinding struct {
	expr ast.Expr
	val  Value
}

// Options configures an interpreter.
type Options struct {
	// Out receives print() output; nil discards it.
	Out io.Writer
	// MaxSteps bounds evaluation (default 1 << 20).
	MaxSteps int
}

// New builds an interpreter for the checked module, allocating global
// storage (locks start released, ints at zero).
func New(tinfo *types.Info, opts Options) *Interp {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 1 << 20
	}
	in := &Interp{
		tinfo:   tinfo,
		out:     opts.Out,
		globals: make(map[string]storage),
		Steps:   opts.MaxSteps,
	}
	for _, g := range tinfo.Prog.Globals {
		sym := tinfo.Globals[g.Name]
		if sym != nil {
			in.globals[g.Name] = in.allocType(sym.Type)
		}
	}
	return in
}

// allocType allocates zeroed storage for a type.
func (in *Interp) allocType(t types.Type) storage {
	switch t := t.(type) {
	case *types.Array:
		a := &ArrayStor{}
		for i := 0; i < t.Size; i++ {
			a.Elems = append(a.Elems, in.allocType(t.Elem))
		}
		return a
	case *types.Named:
		s := &StructStor{Decl: t.Decl, Fields: map[string]storage{}}
		for _, f := range t.Decl.Fields {
			s.Fields[f.Name] = in.allocType(in.tinfo.FieldType(t.Decl, f.Name))
		}
		return s
	case *types.Ref:
		return &Cell{V: (*Ref)(nil)}
	default:
		return &Cell{V: int64(0)}
	}
}

// env is the runtime environment.
type env struct {
	parent *env
	vars   map[*types.Symbol]Value
}

func (e *env) lookup(sym *types.Symbol) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[sym]; ok {
			return v, true
		}
	}
	return nil, false
}

func (e *env) child() *env {
	return &env{parent: e, vars: map[*types.Symbol]Value{}}
}

// returnSignal unwinds a function body.
type returnSignal struct{ v Value }

func (returnSignal) Error() string { return "return" }

// Call runs the named function with the given arguments.
func (in *Interp) Call(name string, args ...Value) (Value, error) {
	f := in.tinfo.Prog.Fun(name)
	if f == nil {
		return nil, &Trap{Msg: fmt.Sprintf("no function %q", name)}
	}
	if len(args) != len(f.Params) {
		return nil, &Trap{Msg: fmt.Sprintf("%s expects %d args, got %d", name, len(f.Params), len(args))}
	}
	return in.invoke(f, args)
}

// invoke binds arguments (honoring restrict-qualified parameters with
// the copy/poison semantics) and runs the body.
func (in *Interp) invoke(f *ast.FunDecl, args []Value) (Value, error) {
	e := &env{vars: map[*types.Symbol]Value{}}
	// Restricted parameter bindings to unwind at exit.
	type opened struct {
		orig, copied storage
	}
	var open []opened
	for i, p := range f.Params {
		sym := in.tinfo.BinderOf(p)
		v := args[i]
		if p.Restrict {
			r, ok := v.(*Ref)
			if !ok || r == nil {
				return nil, &Trap{At: p.Sp, Msg: "restrict parameter bound to a non-pointer"}
			}
			copyS, err := copyStorage(r.S, p.Sp)
			if err != nil {
				return nil, err
			}
			setPoison(r.S, true)
			open = append(open, opened{orig: r.S, copied: copyS})
			v = &Ref{S: copyS}
		}
		e.vars[sym] = v
	}
	err := in.stmts(f.Body.Stmts, e)
	for i := len(open) - 1; i >= 0; i-- {
		setPoison(open[i].orig, false)
		writeBack(open[i].orig, open[i].copied)
		setPoison(open[i].copied, true)
	}
	if rs, ok := err.(returnSignal); ok {
		return rs.v, nil
	}
	if err != nil {
		return nil, err
	}
	return Unit, nil
}

func (in *Interp) tick(sp source.Span) error {
	in.Steps--
	if in.Steps <= 0 {
		return &Trap{At: sp, Msg: "step budget exhausted"}
	}
	return nil
}

// ---------------------------------------------------------------------
// Statements

func (in *Interp) stmts(list []ast.Stmt, e *env) error {
	for i, s := range list {
		switch s := s.(type) {
		case *ast.DeclStmt:
			v, err := in.expr(s.Init, e)
			if err != nil {
				return err
			}
			sym := in.tinfo.BinderOf(s)
			rest := list[i+1:]
			if s.Restrict {
				return in.restrictScope(s.Sp, sym, v, func(e2 *env) error {
					return in.stmts(rest, e2)
				}, e)
			}
			e2 := e.child()
			e2.vars[sym] = v
			return in.stmts(rest, e2)
		default:
			if err := in.stmt(s, e); err != nil {
				return err
			}
		}
	}
	return nil
}

// restrictScope implements the Section 3.2 rule: copy, poison, run,
// write back, poison the copy.
func (in *Interp) restrictScope(sp source.Span, sym *types.Symbol, v Value, body func(*env) error, e *env) error {
	r, ok := v.(*Ref)
	if !ok || r == nil {
		return &Trap{At: sp, Msg: "restrict of a non-pointer value"}
	}
	copyS, err := copyStorage(r.S, sp)
	if err != nil {
		return err
	}
	setPoison(r.S, true)
	e2 := e.child()
	e2.vars[sym] = &Ref{S: copyS}
	bodyErr := body(e2)
	// Write back and poison the copy regardless of how the body
	// exited (including via return).
	setPoison(r.S, false)
	writeBack(r.S, copyS)
	setPoison(copyS, true)
	return bodyErr
}

func (in *Interp) stmt(s ast.Stmt, e *env) error {
	if err := in.tick(s.Span()); err != nil {
		return err
	}
	switch s := s.(type) {
	case *ast.BindStmt:
		v, err := in.expr(s.Init, e)
		if err != nil {
			return err
		}
		sym := in.tinfo.BinderOf(s)
		if s.Kind == ast.BindRestrict {
			return in.restrictScope(s.Sp, sym, v, func(e2 *env) error {
				return in.stmts(s.Body.Stmts, e2)
			}, e)
		}
		e2 := e.child()
		e2.vars[sym] = v
		return in.stmts(s.Body.Stmts, e2)

	case *ast.ConfineStmt:
		// confine e1 in e2 ≡ restrict x = e1 in e2[e1/x]: evaluate
		// e1, create the restricted copy, and make occurrences of e1
		// inside the body denote the copy.
		v, err := in.expr(s.Expr, e)
		if err != nil {
			return err
		}
		r, ok := v.(*Ref)
		if !ok || r == nil {
			return &Trap{At: s.Sp, Msg: "confine of a non-pointer value"}
		}
		copyS, err := copyStorage(r.S, s.Sp)
		if err != nil {
			return err
		}
		setPoison(r.S, true)
		in.confines = append(in.confines, &confBinding{expr: s.Expr, val: &Ref{S: copyS}})
		bodyErr := in.stmts(s.Body.Stmts, e.child())
		in.confines = in.confines[:len(in.confines)-1]
		setPoison(r.S, false)
		writeBack(r.S, copyS)
		setPoison(copyS, true)
		return bodyErr

	case *ast.AssignStmt:
		st, err := in.place(s.LHS, e)
		if err != nil {
			return err
		}
		cell, ok := st.(*Cell)
		if !ok {
			return &Trap{At: s.Sp, Msg: "assignment to aggregate storage"}
		}
		v, err := in.expr(s.RHS, e)
		if err != nil {
			return err
		}
		if cell.Poisoned {
			return &RestrictErr{At: s.Sp, Msg: "write through a location bound by an active restrict"}
		}
		cell.V = v
		return nil

	case *ast.ExprStmt:
		_, err := in.expr(s.X, e)
		return err

	case *ast.IfStmt:
		c, err := in.intOf(s.Cond, e)
		if err != nil {
			return err
		}
		if c != 0 {
			return in.stmts(s.Then.Stmts, e.child())
		}
		if s.Else != nil {
			return in.stmts(s.Else.Stmts, e.child())
		}
		return nil

	case *ast.WhileStmt:
		for {
			if err := in.tick(s.Sp); err != nil {
				return err
			}
			c, err := in.intOf(s.Cond, e)
			if err != nil {
				return err
			}
			if c == 0 {
				return nil
			}
			if err := in.stmts(s.Body.Stmts, e.child()); err != nil {
				return err
			}
		}

	case *ast.ReturnStmt:
		if s.X == nil {
			return returnSignal{v: Unit}
		}
		v, err := in.expr(s.X, e)
		if err != nil {
			return err
		}
		return returnSignal{v: v}

	case *ast.Block:
		return in.stmts(s.Stmts, e.child())

	default:
		return &Trap{At: s.Span(), Msg: fmt.Sprintf("unsupported statement %T", s)}
	}
}

// ---------------------------------------------------------------------
// Expressions

func (in *Interp) intOf(e ast.Expr, env *env) (int64, error) {
	v, err := in.expr(e, env)
	if err != nil {
		return 0, err
	}
	n, ok := v.(int64)
	if !ok {
		return 0, &Trap{At: e.Span(), Msg: fmt.Sprintf("expected int, got %T", v)}
	}
	return n, nil
}

func (in *Interp) expr(x ast.Expr, e *env) (Value, error) {
	if err := in.tick(x.Span()); err != nil {
		return nil, err
	}
	// Active confine occurrences denote the bound copy.
	for i := len(in.confines) - 1; i >= 0; i-- {
		cb := in.confines[i]
		if in.tinfo.EqualResolved(x, cb.expr) {
			return cb.val, nil
		}
	}
	switch x := x.(type) {
	case *ast.IntLit:
		return x.Value, nil

	case *ast.VarExpr:
		sym := in.tinfo.UseOf(x)
		if sym == nil {
			return nil, &Trap{At: x.Sp, Msg: "unresolved variable " + x.Name}
		}
		if sym.Kind == types.SymGlobal {
			st := in.globals[x.Name]
			cell, ok := st.(*Cell)
			if !ok {
				return nil, &Trap{At: x.Sp, Msg: "aggregate global read as value"}
			}
			return in.readCell(cell, x.Sp)
		}
		v, ok := e.lookup(sym)
		if !ok {
			return nil, &Trap{At: x.Sp, Msg: "unbound variable " + x.Name}
		}
		return v, nil

	case *ast.NewExpr:
		if sd := in.tinfo.StructAllocOf(x); sd != nil {
			return &Ref{S: in.allocType(&types.Named{Decl: sd})}, nil
		}
		v, err := in.expr(x.Init, e)
		if err != nil {
			return nil, err
		}
		return &Ref{S: &Cell{V: v}}, nil

	case *ast.DerefExpr:
		v, err := in.expr(x.X, e)
		if err != nil {
			return nil, err
		}
		cell, err := in.cellOf(v, x.Sp)
		if err != nil {
			return nil, err
		}
		return in.readCell(cell, x.Sp)

	case *ast.AddrExpr:
		st, err := in.place(x.X, e)
		if err != nil {
			return nil, err
		}
		return &Ref{S: st}, nil

	case *ast.IndexExpr, *ast.FieldExpr:
		st, err := in.place(x, e)
		if err != nil {
			return nil, err
		}
		cell, ok := st.(*Cell)
		if !ok {
			return nil, &Trap{At: x.Span(), Msg: "aggregate storage read as value"}
		}
		return in.readCell(cell, x.Span())

	case *ast.BinExpr:
		return in.binOp(x, e)

	case *ast.UnExpr:
		n, err := in.intOf(x.X, e)
		if err != nil {
			return nil, err
		}
		if x.Op == token.Not {
			if n == 0 {
				return int64(1), nil
			}
			return int64(0), nil
		}
		return -n, nil

	case *ast.CallExpr:
		return in.callExpr(x, e)

	default:
		return nil, &Trap{At: x.Span(), Msg: fmt.Sprintf("unsupported expression %T", x)}
	}
}

func (in *Interp) readCell(c *Cell, sp source.Span) (Value, error) {
	if c.Poisoned {
		return nil, &RestrictErr{At: sp, Msg: "read through a location bound by an active restrict"}
	}
	return c.V, nil
}

func (in *Interp) cellOf(v Value, sp source.Span) (*Cell, error) {
	r, ok := v.(*Ref)
	if !ok || r == nil {
		return nil, &Trap{At: sp, Msg: "dereference of a non-pointer (or nil) value"}
	}
	cell, ok := r.S.(*Cell)
	if !ok {
		return nil, &Trap{At: sp, Msg: "dereference of aggregate storage"}
	}
	return cell, nil
}

func (in *Interp) binOp(x *ast.BinExpr, e *env) (Value, error) {
	// Short-circuit logicals.
	if x.Op == token.AndAnd || x.Op == token.OrOr {
		l, err := in.intOf(x.X, e)
		if err != nil {
			return nil, err
		}
		if x.Op == token.AndAnd && l == 0 {
			return int64(0), nil
		}
		if x.Op == token.OrOr && l != 0 {
			return int64(1), nil
		}
		r, err := in.intOf(x.Y, e)
		if err != nil {
			return nil, err
		}
		if r != 0 {
			return int64(1), nil
		}
		return int64(0), nil
	}
	if x.Op == token.Eq || x.Op == token.NotEq {
		lv, err := in.expr(x.X, e)
		if err != nil {
			return nil, err
		}
		rv, err := in.expr(x.Y, e)
		if err != nil {
			return nil, err
		}
		eq := valueEq(lv, rv)
		if (x.Op == token.Eq) == eq {
			return int64(1), nil
		}
		return int64(0), nil
	}
	l, err := in.intOf(x.X, e)
	if err != nil {
		return nil, err
	}
	r, err := in.intOf(x.Y, e)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case token.Plus:
		return l + r, nil
	case token.Minus:
		return l - r, nil
	case token.Star:
		return l * r, nil
	case token.Slash:
		if r == 0 {
			return nil, &Trap{At: x.Sp, Msg: "division by zero"}
		}
		return l / r, nil
	case token.Percent:
		if r == 0 {
			return nil, &Trap{At: x.Sp, Msg: "modulo by zero"}
		}
		return l % r, nil
	case token.Less:
		return b2i(l < r), nil
	case token.LessEq:
		return b2i(l <= r), nil
	case token.Greater:
		return b2i(l > r), nil
	case token.GreatEq:
		return b2i(l >= r), nil
	default:
		return nil, &Trap{At: x.Sp, Msg: "unknown operator " + x.Op.String()}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func valueEq(a, b Value) bool {
	switch a := a.(type) {
	case int64:
		bi, ok := b.(int64)
		return ok && a == bi
	case *Ref:
		br, ok := b.(*Ref)
		if !ok {
			return false
		}
		if a == nil || br == nil {
			return (a == nil || a.S == nil) && (br == nil || br.S == nil)
		}
		return a.S == br.S
	default:
		return false
	}
}

func (in *Interp) callExpr(x *ast.CallExpr, e *env) (Value, error) {
	var args []Value
	for _, a := range x.Args {
		v, err := in.expr(a, e)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	if op, isOp := types.LookupChangeOp(x.Fun); isOp {
		if len(args) != 1 {
			return nil, &Trap{At: x.Sp, Msg: x.Fun + " arity"}
		}
		cell, err := in.cellOf(args[0], x.Sp)
		if err != nil {
			return nil, err
		}
		if cell.Poisoned {
			return nil, &RestrictErr{At: x.Sp, Msg: x.Fun + " through a restricted location"}
		}
		// Acquire ops require the resource released; release ops the
		// converse.
		if cell.Held == op.Acquire {
			if op.Acquire {
				return nil, &Trap{At: x.Sp, Msg: x.Fun + " of a lock that is already held (self-deadlock)"}
			}
			return nil, &Trap{At: x.Sp, Msg: x.Fun + " of a lock that is not held"}
		}
		cell.Held = op.Acquire
		in.LockEvents++
		return Unit, nil
	}
	switch x.Fun {
	case "work":
		return Unit, nil
	case "print":
		if in.out != nil && len(args) == 1 {
			fmt.Fprintf(in.out, "%v\n", args[0])
		}
		return Unit, nil
	}
	f := in.tinfo.Prog.Fun(x.Fun)
	if f == nil {
		return nil, &Trap{At: x.Sp, Msg: "call to unknown function " + x.Fun}
	}
	return in.invoke(f, args)
}

// ---------------------------------------------------------------------
// Places

func (in *Interp) place(x ast.Expr, e *env) (storage, error) {
	// A confined occurrence used as a place (e.g. assignment through
	// it) still denotes the copy.
	for i := len(in.confines) - 1; i >= 0; i-- {
		cb := in.confines[i]
		if in.tinfo.EqualResolved(x, cb.expr) {
			if r, ok := cb.val.(*Ref); ok {
				return r.S, nil
			}
		}
	}
	switch x := x.(type) {
	case *ast.VarExpr:
		st, ok := in.globals[x.Name]
		if !ok {
			return nil, &Trap{At: x.Sp, Msg: "not storage: " + x.Name}
		}
		return st, nil

	case *ast.DerefExpr:
		v, err := in.expr(x.X, e)
		if err != nil {
			return nil, err
		}
		r, ok := v.(*Ref)
		if !ok || r == nil {
			return nil, &Trap{At: x.Sp, Msg: "dereference of a non-pointer (or nil) value"}
		}
		return r.S, nil

	case *ast.IndexExpr:
		st, err := in.place(x.X, e)
		if err != nil {
			return nil, err
		}
		arr, ok := st.(*ArrayStor)
		if !ok {
			return nil, &Trap{At: x.Sp, Msg: "index of non-array storage"}
		}
		i, err := in.intOf(x.Index, e)
		if err != nil {
			return nil, err
		}
		if i < 0 || int(i) >= len(arr.Elems) {
			return nil, &Trap{At: x.Sp, Msg: fmt.Sprintf("index %d out of bounds [0,%d)", i, len(arr.Elems))}
		}
		return arr.Elems[i], nil

	case *ast.FieldExpr:
		var st storage
		if x.Arrow {
			v, err := in.expr(x.X, e)
			if err != nil {
				return nil, err
			}
			r, ok := v.(*Ref)
			if !ok || r == nil {
				return nil, &Trap{At: x.Sp, Msg: "-> through non-pointer"}
			}
			st = r.S
		} else {
			var err error
			st, err = in.place(x.X, e)
			if err != nil {
				return nil, err
			}
		}
		ss, ok := st.(*StructStor)
		if !ok {
			return nil, &Trap{At: x.Sp, Msg: "field access on non-struct storage"}
		}
		f, ok := ss.Fields[x.Name]
		if !ok {
			return nil, &Trap{At: x.Sp, Msg: "no field " + x.Name}
		}
		return f, nil

	default:
		return nil, &Trap{At: x.Span(), Msg: fmt.Sprintf("not a place: %T", x)}
	}
}

// ---------------------------------------------------------------------
// Storage helpers for restrict semantics

// copyStorage deep-copies storage (the fresh l' of the semantics).
func copyStorage(s storage, sp source.Span) (storage, error) {
	switch s := s.(type) {
	case *Cell:
		if s.Poisoned {
			return nil, &RestrictErr{At: sp, Msg: "restrict of an already-restricted location"}
		}
		return &Cell{V: s.V, Held: s.Held}, nil
	case *ArrayStor:
		out := &ArrayStor{}
		for _, el := range s.Elems {
			c, err := copyStorage(el, sp)
			if err != nil {
				return nil, err
			}
			out.Elems = append(out.Elems, c)
		}
		return out, nil
	case *StructStor:
		out := &StructStor{Decl: s.Decl, Fields: map[string]storage{}}
		for k, f := range s.Fields {
			c, err := copyStorage(f, sp)
			if err != nil {
				return nil, err
			}
			out.Fields[k] = c
		}
		return out, nil
	default:
		return nil, &Trap{At: sp, Msg: "uncopyable storage"}
	}
}

// setPoison marks every cell of s.
func setPoison(s storage, on bool) {
	switch s := s.(type) {
	case *Cell:
		s.Poisoned = on
	case *ArrayStor:
		for _, el := range s.Elems {
			setPoison(el, on)
		}
	case *StructStor:
		for _, f := range s.Fields {
			setPoison(f, on)
		}
	}
}

// writeBack copies the values of src into dst (the l := l' step).
func writeBack(dst, src storage) {
	switch d := dst.(type) {
	case *Cell:
		if s, ok := src.(*Cell); ok {
			d.V = s.V
			d.Held = s.Held
		}
	case *ArrayStor:
		if s, ok := src.(*ArrayStor); ok {
			for i := range d.Elems {
				if i < len(s.Elems) {
					writeBack(d.Elems[i], s.Elems[i])
				}
			}
		}
	case *StructStor:
		if s, ok := src.(*StructStor); ok {
			for k := range d.Fields {
				writeBack(d.Fields[k], s.Fields[k])
			}
		}
	}
}

// GlobalCell returns the cell of a scalar global (for tests).
func (in *Interp) GlobalCell(name string) *Cell {
	c, _ := in.globals[name].(*Cell)
	return c
}

// GlobalStorage returns a global's storage (for tests).
func (in *Interp) GlobalStorage(name string) interface{} { return in.globals[name] }

// FormatValue renders a value for messages.
func FormatValue(v Value) string {
	switch v := v.(type) {
	case int64:
		return fmt.Sprintf("%d", v)
	case unitValue:
		return "unit"
	case *Ref:
		if v == nil || v.S == nil {
			return "nil"
		}
		return "ref"
	default:
		return strings.TrimSpace(fmt.Sprintf("%v", v))
	}
}
