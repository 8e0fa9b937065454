// Package types implements MiniC's standard type system — the
// qualifier- and location-free types the paper assumes have already
// been checked before alias and effect inference runs ("we assume
// that type checking has already been carried out for the underlying
// standard types of the language", Section 4).
//
// The checker resolves names, computes a standard type for every
// expression, classifies place (lvalue) expressions, and enforces the
// structural rules of the language:
//
//   - locks are second-class: they live in storage and are handled
//     only by address (&lv of lock type); lock values cannot be read,
//     copied or assigned;
//   - arrays and structs are storage, not values: they are indexed,
//     field-selected or addressed, never copied;
//   - let binds values (int or ref); mutation happens only through
//     refs, array elements, struct fields and scalar globals.
package types

import (
	"fmt"

	"localalias/internal/ast"
)

// ---------------------------------------------------------------------
// Standard types

// Type is a standard MiniC type.
type Type interface {
	String() string
	typ()
}

// Prim is int, unit or lock.
type Prim struct{ Kind ast.PrimKind }

// Ref is a pointer to a cell holding Elem.
type Ref struct{ Elem Type }

// Array is Size cells holding Elem.
type Array struct {
	Elem Type
	Size int
}

// Named is a declared struct type.
type Named struct{ Decl *ast.StructDecl }

func (t *Prim) String() string  { return t.Kind.String() }
func (t *Ref) String() string   { return "ref " + t.Elem.String() }
func (t *Array) String() string { return fmt.Sprintf("%s[%d]", t.Elem.String(), t.Size) }
func (t *Named) String() string { return t.Decl.Name }

func (*Prim) typ()  {}
func (*Ref) typ()   {}
func (*Array) typ() {}
func (*Named) typ() {}

// Shared primitive type instances.
var (
	IntType  = &Prim{Kind: ast.PrimInt}
	UnitType = &Prim{Kind: ast.PrimUnit}
	LockType = &Prim{Kind: ast.PrimLock}
)

// Equal reports structural equality (structs are nominal; array sizes
// are ignored, matching the alias analysis's inability to distinguish
// elements).
func Equal(a, b Type) bool {
	switch a := a.(type) {
	case *Prim:
		b, ok := b.(*Prim)
		return ok && a.Kind == b.Kind
	case *Ref:
		b, ok := b.(*Ref)
		return ok && Equal(a.Elem, b.Elem)
	case *Array:
		b, ok := b.(*Array)
		return ok && Equal(a.Elem, b.Elem)
	case *Named:
		b, ok := b.(*Named)
		return ok && a.Decl == b.Decl
	default:
		return false
	}
}

// IsScalar reports whether t is a first-class value type (int or ref).
func IsScalar(t Type) bool {
	switch t := t.(type) {
	case *Prim:
		return t.Kind == ast.PrimInt
	case *Ref:
		return true
	default:
		return false
	}
}

// IsLock reports whether t is the lock type.
func IsLock(t Type) bool {
	p, ok := t.(*Prim)
	return ok && p.Kind == ast.PrimLock
}

// IsUnit reports whether t is unit.
func IsUnit(t Type) bool {
	p, ok := t.(*Prim)
	return ok && p.Kind == ast.PrimUnit
}

// ---------------------------------------------------------------------
// Symbols and checker results

// SymKind classifies a resolved name.
type SymKind int

// The symbol kinds.
const (
	SymGlobal SymKind = iota // module-level storage
	SymParam                 // function parameter (a bound value)
	SymLet                   // let-bound value (DeclStmt or BindStmt)
	SymFun                   // function
)

func (k SymKind) String() string {
	switch k {
	case SymGlobal:
		return "global"
	case SymParam:
		return "param"
	case SymLet:
		return "let"
	case SymFun:
		return "fun"
	default:
		return "sym(?)"
	}
}

// Symbol is one resolved definition.
type Symbol struct {
	Name string
	Kind SymKind
	// Type is the value type for params/lets, the storage type for
	// globals.
	Type Type
	// Def is the defining node (*ast.GlobalDecl, *ast.Param,
	// *ast.DeclStmt, *ast.BindStmt, or *ast.FunDecl).
	Def ast.Node
}

// FunSig is a function's checked signature.
type FunSig struct {
	Decl    *ast.FunDecl
	Name    string
	Params  []Type
	Result  Type
	Builtin bool
	// Called records that some call in the checked module resolves to
	// this signature (see Info.LockSites). Imported signatures are
	// never marked.
	Called bool
}

// PkgSig is the exported type surface of a separately-checked module:
// the signatures of its exportable functions, keyed by name.
type PkgSig struct {
	Name string
	Funs map[string]*FunSig
}

// ImportSigs maps import paths to the exported surface of the named
// modules, as supplied by the linker (internal/modgraph). A nil map
// resolves nothing: every import declaration then reports
// "package not found".
type ImportSigs map[string]*PkgSig

// Exportable reports whether sig can cross a module boundary: every
// parameter and the result must be built from int/unit/lock/ref only.
// Module-local struct names would be meaningless to importers, so
// functions mentioning them stay module-private.
func Exportable(sig *FunSig) bool {
	for _, p := range sig.Params {
		if !portable(p) {
			return false
		}
	}
	return portable(sig.Result)
}

func portable(t Type) bool {
	switch t := t.(type) {
	case *Prim:
		return true
	case *Ref:
		return portable(t.Elem)
	case *Array:
		return portable(t.Elem)
	default: // *Named, nil
		return false
	}
}

// Exports returns the package signature a module offers to importers:
// its exportable non-builtin functions. name is the module's package
// name (the path importers use).
func (in *Info) Exports(name string) *PkgSig {
	ps := &PkgSig{Name: name, Funs: make(map[string]*FunSig)}
	for fname, sig := range in.Funs {
		if !sig.Builtin && sig.Decl != nil && Exportable(sig) {
			ps.Funs[fname] = sig
		}
	}
	return ps
}

// Info holds everything the checker learned. Its node tables are
// slices indexed by ast.NodeID, sized to Prog.NumNodes by the check;
// later phases build their own tables the same way. Read them through
// TypeOf, UseOf and BinderOf, which treat an ID past the
// end of a table as absent. Planting confines adds nodes to the
// program after the check and extends these tables in place (Extend);
// tables another phase built before planting stay shorter, and the
// accessors report the planted nodes as absent from them.
type Info struct {
	Prog *ast.Program
	// ExprTypes holds every checked expression's standard type. For
	// place expressions this is the content type of the place.
	ExprTypes []Type
	// Uses resolves every variable occurrence to its symbol.
	Uses []*Symbol
	// Binders holds the symbol each binding node (GlobalDecl, Param,
	// DeclStmt, BindStmt) introduces.
	Binders []*Symbol
	// Typed counts the expressions with a type in ExprTypes, and
	// NumBinders the nodes with a symbol in Binders.
	Typed, NumBinders int
	// LockSites counts the calls to state-changing builtins
	// (IsLockOp) in the program, and each signature in Funs records
	// in Called whether a call resolves to it. The check sees every
	// call while resolving it, so the qualifier analysis reads these
	// facts instead of walking the program again. Planting confines
	// adds no calls (a confinable expression has none), so the facts
	// hold for the planted program too.
	LockSites int
	// Funs maps function names to signatures (including builtins).
	Funs map[string]*FunSig
	// Structs maps struct names to declarations.
	Structs map[string]*ast.StructDecl
	// Globals maps global names to symbols.
	Globals map[string]*Symbol
	// Imports maps each declared import path to the resolved package
	// signature; entries are nil when resolution failed (the error is
	// reported at the import declaration).
	Imports map[string]*PkgSig
}

// TypeOf returns the checked type of e, or nil.
func (in *Info) TypeOf(e ast.Expr) Type { return ast.Lookup(in.ExprTypes, e.NodeID()) }

// UseOf returns the symbol v resolves to, or nil.
func (in *Info) UseOf(v *ast.VarExpr) *Symbol { return ast.Lookup(in.Uses, v.ID) }

// BinderOf returns the symbol binding node n introduces, or nil.
func (in *Info) BinderOf(n ast.Numbered) *Symbol { return ast.Lookup(in.Binders, n.NodeID()) }

// StructAllocOf returns the struct e allocates, or nil when e is not
// a struct allocation ("new S" where S names a struct, which the
// check types ref S; an initializer is always scalar, so no other new
// has that type).
func (in *Info) StructAllocOf(e *ast.NewExpr) *ast.StructDecl {
	if r, ok := in.TypeOf(e).(*Ref); ok {
		if n, ok := r.Elem.(*Named); ok {
			return n.Decl
		}
	}
	return nil
}

// Extend grows the node tables to cover every ID of Prog, so that
// nodes added after the check can be given entries.
func (in *Info) Extend() {
	n := in.Prog.NumNodes
	in.ExprTypes = extend(in.ExprTypes, n)
	in.Uses = extend(in.Uses, n)
	in.Binders = extend(in.Binders, n)
}

func extend[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// ChangeOp describes one state-changing builtin — an instance of
// CQUAL's change_type primitive [15]. Every ChangeOp takes a single
// "ref lock" argument whose pointed-to state it flips: Acquire ops
// require the resource released and take it; release ops require it
// held and release it.
type ChangeOp struct {
	Name    string
	Acquire bool
	// Release is the matching op's name (for diagnostics).
	Counterpart string
}

// changeOps lists the change_type instances: the spin-lock pair of
// the Section 7 experiment plus an interrupt-flag pair, showing the
// framework is protocol-generic.
var changeOps = [...]ChangeOp{
	{Name: "spin_lock", Acquire: true, Counterpart: "spin_unlock"},
	{Name: "spin_unlock", Acquire: false, Counterpart: "spin_lock"},
	{Name: "irq_save", Acquire: true, Counterpart: "irq_restore"},
	{Name: "irq_restore", Acquire: false, Counterpart: "irq_save"},
}

// changeOpIndex returns name's index in changeOps, or -1. The checker
// and the analyses ask this of every call, so it is a string switch
// rather than a map lookup.
func changeOpIndex(name string) int {
	switch name {
	case "spin_lock":
		return 0
	case "spin_unlock":
		return 1
	case "irq_save":
		return 2
	case "irq_restore":
		return 3
	}
	return -1
}

// Builtins returns the builtin function signatures shared by every
// module: the change_type instances, the opaque work() routine, and
// print.
func Builtins() map[string]*FunSig {
	out := map[string]*FunSig{
		"work": {
			Name:    "work",
			Params:  nil,
			Result:  UnitType,
			Builtin: true,
		},
		"print": {
			Name:    "print",
			Params:  []Type{IntType},
			Result:  UnitType,
			Builtin: true,
		},
	}
	for _, op := range changeOps {
		out[op.Name] = &FunSig{
			Name:    op.Name,
			Params:  []Type{&Ref{Elem: LockType}},
			Result:  UnitType,
			Builtin: true,
		}
	}
	return out
}

// IsLockOp reports whether name is a state-changing builtin (a
// change_type call in the experiment's terminology).
func IsLockOp(name string) bool { return changeOpIndex(name) >= 0 }

// LookupChangeOp returns the ChangeOp for name.
func LookupChangeOp(name string) (ChangeOp, bool) {
	if i := changeOpIndex(name); i >= 0 {
		return changeOps[i], true
	}
	return ChangeOp{}, false
}
