// Package ast defines the abstract syntax tree of MiniC.
//
// The tree mirrors the paper's core language — variables, integers,
// new, dereference, assignment, let, restrict and confine — extended
// with declarations (functions, globals, structs), control flow and
// the lvalue forms (array indexing, field access, address-of) needed
// to write Linux-driver-style locking code.
//
// Binder forms come in two flavors:
//
//   - DeclStmt is "let x = e;" whose scope is the remainder of the
//     enclosing block. These are the candidates considered by
//     restrict inference (Section 5 of the paper); inference records
//     its verdict in DeclStmt.Restrict.
//   - BindStmt is the explicitly scoped "let x = e { ... }" or
//     "restrict x = e { ... }" form matching the paper's
//     "restrict x = e1 in e2".
//
// ConfineStmt is "confine e { ... }"; confine inference inserts these
// nodes (marked Inferred) rather than rewriting the body, exactly as
// the paper's definition confine e1 in e2[e1/x] permits.
package ast

import (
	"localalias/internal/source"
	"localalias/internal/token"
)

// Node is implemented by every syntax node.
type Node interface {
	Span() source.Span
}

// NodeID is a node's dense index into the side tables later phases
// keep about it (types.Info, infer.Result). The parser numbers every
// expression and every node that binds or scopes a name — GlobalDecl,
// Param, DeclStmt, BindStmt and ConfineStmt — from 0 up, and records
// the count in Program.NumNodes. Nodes added to a parsed program take
// their IDs from Program.NewID.
type NodeID int32

// Numbered is implemented by the nodes that carry a NodeID.
type Numbered interface {
	Node
	NodeID() NodeID
}

// Lookup returns table[id], or T's zero value when id is past the end
// of table. Side tables are sized to the program's node count when
// they are built, so a node numbered later (a planted clone) has no
// entry in them.
func Lookup[T any](table []T, id NodeID) T {
	if int(id) < len(table) {
		return table[id]
	}
	var zero T
	return zero
}

// ---------------------------------------------------------------------
// Types (syntactic)

// TypeExpr is a syntactic type.
type TypeExpr interface {
	Node
	typeExpr()
}

// PrimKind enumerates the primitive types.
type PrimKind int

// The primitive types.
const (
	PrimInt PrimKind = iota
	PrimUnit
	PrimLock
)

func (k PrimKind) String() string {
	switch k {
	case PrimInt:
		return "int"
	case PrimUnit:
		return "unit"
	case PrimLock:
		return "lock"
	default:
		return "prim(?)"
	}
}

// PrimType is int, unit or lock.
type PrimType struct {
	Kind PrimKind
	Sp   source.Span
}

// NamedType refers to a declared struct type.
type NamedType struct {
	Name string
	Sp   source.Span
}

// RefType is "ref T", a pointer to a cell holding T.
type RefType struct {
	Elem TypeExpr
	Sp   source.Span
}

// ArrayType is "T[n]", n cells holding T. As in the paper's alias
// analysis, all elements share one abstract location.
type ArrayType struct {
	Elem TypeExpr
	Size int
	Sp   source.Span
}

func (t *PrimType) Span() source.Span  { return t.Sp }
func (t *NamedType) Span() source.Span { return t.Sp }
func (t *RefType) Span() source.Span   { return t.Sp }
func (t *ArrayType) Span() source.Span { return t.Sp }

func (*PrimType) typeExpr()  {}
func (*NamedType) typeExpr() {}
func (*RefType) typeExpr()   {}
func (*ArrayType) typeExpr() {}

// ---------------------------------------------------------------------
// Expressions

// Expr is implemented by all expression nodes.
type Expr interface {
	Numbered
	expr()
}

// IntLit is an integer literal.
type IntLit struct {
	Value int64
	ID    NodeID
	Sp    source.Span
}

// VarExpr is a reference to a let-bound variable, parameter or global.
type VarExpr struct {
	Name string
	ID   NodeID
	Sp   source.Span
}

// NewExpr is "new e": allocate a fresh cell initialized to e and
// return a reference to it.
type NewExpr struct {
	Init Expr
	ID   NodeID
	Sp   source.Span
}

// DerefExpr is "*e".
type DerefExpr struct {
	X  Expr
	ID NodeID
	Sp source.Span
}

// AddrExpr is "&lv" where lv is a global variable, an index
// expression, or a field access.
type AddrExpr struct {
	X  Expr
	ID NodeID
	Sp source.Span
}

// IndexExpr is "e[i]".
type IndexExpr struct {
	X     Expr
	Index Expr
	ID    NodeID
	Sp    source.Span
}

// FieldExpr is "e.f", or "e->f" when Arrow is set (sugar for (*e).f).
type FieldExpr struct {
	X     Expr
	Name  string
	Arrow bool
	ID    NodeID
	Sp    source.Span
}

// BinExpr is a binary operation.
type BinExpr struct {
	Op   token.Kind
	X, Y Expr
	ID   NodeID
	Sp   source.Span
}

// UnExpr is unary negation or logical not.
type UnExpr struct {
	Op token.Kind
	X  Expr
	ID NodeID
	Sp source.Span
}

// CallExpr is a direct call "f(args)". MiniC has no function pointers;
// Fun names either a declared function or a builtin (spin_lock,
// spin_unlock, work, print).
type CallExpr struct {
	Fun  string
	Args []Expr
	ID   NodeID
	Sp   source.Span
}

func (e *IntLit) Span() source.Span    { return e.Sp }
func (e *VarExpr) Span() source.Span   { return e.Sp }
func (e *NewExpr) Span() source.Span   { return e.Sp }
func (e *DerefExpr) Span() source.Span { return e.Sp }
func (e *AddrExpr) Span() source.Span  { return e.Sp }
func (e *IndexExpr) Span() source.Span { return e.Sp }
func (e *FieldExpr) Span() source.Span { return e.Sp }
func (e *BinExpr) Span() source.Span   { return e.Sp }
func (e *UnExpr) Span() source.Span    { return e.Sp }
func (e *CallExpr) Span() source.Span  { return e.Sp }

func (e *IntLit) NodeID() NodeID    { return e.ID }
func (e *VarExpr) NodeID() NodeID   { return e.ID }
func (e *NewExpr) NodeID() NodeID   { return e.ID }
func (e *DerefExpr) NodeID() NodeID { return e.ID }
func (e *AddrExpr) NodeID() NodeID  { return e.ID }
func (e *IndexExpr) NodeID() NodeID { return e.ID }
func (e *FieldExpr) NodeID() NodeID { return e.ID }
func (e *BinExpr) NodeID() NodeID   { return e.ID }
func (e *UnExpr) NodeID() NodeID    { return e.ID }
func (e *CallExpr) NodeID() NodeID  { return e.ID }

func (*IntLit) expr()    {}
func (*VarExpr) expr()   {}
func (*NewExpr) expr()   {}
func (*DerefExpr) expr() {}
func (*AddrExpr) expr()  {}
func (*IndexExpr) expr() {}
func (*FieldExpr) expr() {}
func (*BinExpr) expr()   {}
func (*UnExpr) expr()    {}
func (*CallExpr) expr()  {}

// ---------------------------------------------------------------------
// Statements

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmt()
}

// BindKind distinguishes the two scoped binders.
type BindKind int

// The binder kinds.
const (
	BindLet BindKind = iota
	BindRestrict
)

func (k BindKind) String() string {
	if k == BindRestrict {
		return "restrict"
	}
	return "let"
}

// DeclStmt is "let x = e;": a binding whose scope is the remainder of
// the enclosing block. Restrict inference may set Restrict, turning
// the binding into a restrict of the same (remainder) scope.
type DeclStmt struct {
	Name string
	Init Expr
	// Restrict records restrict inference's verdict (Section 5).
	Restrict bool
	ID       NodeID
	Sp       source.Span
}

// BindStmt is the explicitly scoped binder
// "let x = e { body }" / "restrict x = e { body }".
type BindStmt struct {
	Kind BindKind
	Name string
	Init Expr
	Body *Block
	ID   NodeID
	Sp   source.Span
}

// ConfineStmt is "confine e { body }" (Section 6). Scope inference
// plants candidates as confine? (Optional), which inference treats as
// conditional constraints rather than hard annotations; each is then
// either spliced back out or kept as a plain confine with Inferred
// set.
type ConfineStmt struct {
	Expr     Expr
	Body     *Block
	Optional bool
	Inferred bool
	ID       NodeID
	Sp       source.Span
}

// AssignStmt is "lv = e;". LHS must be a deref, index, field access,
// or global variable.
type AssignStmt struct {
	LHS Expr
	RHS Expr
	Sp  source.Span
}

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	X  Expr
	Sp source.Span
}

// IfStmt is a conditional with optional else.
type IfStmt struct {
	Cond Expr
	Then *Block
	Else *Block // may be nil
	Sp   source.Span
}

// WhileStmt is a loop.
type WhileStmt struct {
	Cond Expr
	Body *Block
	Sp   source.Span
}

// ReturnStmt returns from the enclosing function; X is nil for unit
// returns.
type ReturnStmt struct {
	X  Expr // may be nil
	Sp source.Span
}

// Block is "{ stmts }".
type Block struct {
	Stmts []Stmt
	Sp    source.Span
}

func (s *DeclStmt) Span() source.Span    { return s.Sp }
func (s *BindStmt) Span() source.Span    { return s.Sp }
func (s *ConfineStmt) Span() source.Span { return s.Sp }
func (s *AssignStmt) Span() source.Span  { return s.Sp }
func (s *ExprStmt) Span() source.Span    { return s.Sp }
func (s *IfStmt) Span() source.Span      { return s.Sp }
func (s *WhileStmt) Span() source.Span   { return s.Sp }
func (s *ReturnStmt) Span() source.Span  { return s.Sp }
func (s *Block) Span() source.Span       { return s.Sp }

func (s *DeclStmt) NodeID() NodeID    { return s.ID }
func (s *BindStmt) NodeID() NodeID    { return s.ID }
func (s *ConfineStmt) NodeID() NodeID { return s.ID }

func (*DeclStmt) stmt()    {}
func (*BindStmt) stmt()    {}
func (*ConfineStmt) stmt() {}
func (*AssignStmt) stmt()  {}
func (*ExprStmt) stmt()    {}
func (*IfStmt) stmt()      {}
func (*WhileStmt) stmt()   {}
func (*ReturnStmt) stmt()  {}
func (*Block) stmt()       {}

// ---------------------------------------------------------------------
// Declarations

// Field is one struct field.
type Field struct {
	Name string
	Type TypeExpr
	Sp   source.Span
}

// ImportDecl declares a dependency on another module: `import "pkg";`.
// Exported functions of the imported module are callable as
// pkg.fn(args); resolution happens against separately-parsed modules
// (see types.CheckWith and internal/modgraph).
type ImportDecl struct {
	Path string
	Sp   source.Span
}

// StructDecl declares a record type.
type StructDecl struct {
	Name   string
	Fields []*Field
	Sp     source.Span
}

// GlobalDecl declares module-level storage. A global of scalar type is
// a single cell; arrays and structs are aggregate storage.
type GlobalDecl struct {
	Name string
	Type TypeExpr
	ID   NodeID
	Sp   source.Span
}

// Param is a function parameter. Restrict marks the C99-style
// "restrict ref T" qualifier of the paper's introduction: within the
// function body, the parameter is the sole access path to the
// storage it points to. Unlike C99's trusted annotation, it is
// checked (or set by inference).
type Param struct {
	Name     string
	Type     TypeExpr
	Restrict bool
	ID       NodeID
	Sp       source.Span
}

// FunDecl declares a function. Result may be nil for unit.
type FunDecl struct {
	Name   string
	Params []*Param
	Result TypeExpr // nil means unit
	Body   *Block
	Sp     source.Span
}

func (d *ImportDecl) Span() source.Span { return d.Sp }
func (d *StructDecl) Span() source.Span { return d.Sp }
func (d *GlobalDecl) Span() source.Span { return d.Sp }
func (d *FunDecl) Span() source.Span    { return d.Sp }
func (f *Field) Span() source.Span      { return f.Sp }
func (p *Param) Span() source.Span      { return p.Sp }

func (d *GlobalDecl) NodeID() NodeID { return d.ID }
func (p *Param) NodeID() NodeID      { return p.ID }

// Decl is a top-level declaration.
type Decl interface {
	Node
	decl()
}

func (*ImportDecl) decl() {}
func (*StructDecl) decl() {}
func (*GlobalDecl) decl() {}
func (*FunDecl) decl()    {}

// Program is one compilation unit (a "module" in the driver
// experiment's terminology).
type Program struct {
	File    *source.File
	Imports []*ImportDecl
	Structs []*StructDecl
	Globals []*GlobalDecl
	Funs    []*FunDecl
	// NumNodes is the number of NodeIDs handed out: every numbered
	// node of the program has an ID below it.
	NumNodes int
}

// NewID hands out the next unused NodeID.
func (p *Program) NewID() NodeID {
	id := NodeID(p.NumNodes)
	p.NumNodes++
	return id
}

// Span covers the whole file.
func (p *Program) Span() source.Span {
	if p.File == nil {
		return source.NoSpan
	}
	return source.Span{Start: 0, End: source.Pos(len(p.File.Text))}
}

// Struct returns the struct declaration named name, or nil.
func (p *Program) Struct(name string) *StructDecl {
	for _, s := range p.Structs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Fun returns the function declaration named name, or nil.
func (p *Program) Fun(name string) *FunDecl {
	for _, f := range p.Funs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the global declaration named name, or nil.
func (p *Program) Global(name string) *GlobalDecl {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// Import returns the import declaration for path, or nil.
func (p *Program) Import(path string) *ImportDecl {
	for _, im := range p.Imports {
		if im.Path == path {
			return im
		}
	}
	return nil
}

// SplitQualified splits a qualified call target "pkg.fn" into its
// package and function parts. Unqualified names return ok=false.
// CallExpr.Fun is the only place qualified names appear; plain
// identifiers never contain a dot (the lexer has no such spelling).
func SplitQualified(fun string) (pkg, name string, ok bool) {
	for i := 0; i < len(fun); i++ {
		if fun[i] == '.' {
			return fun[:i], fun[i+1:], true
		}
	}
	return "", fun, false
}
