package ast

import (
	"strings"
	"testing"

	"localalias/internal/source"
	"localalias/internal/token"
)

// tiny helpers for hand-building trees
func v(name string) *VarExpr            { return &VarExpr{Name: name} }
func lit(n int64) *IntLit               { return &IntLit{Value: n} }
func idx(x Expr, i Expr) *IndexExpr     { return &IndexExpr{X: x, Index: i} }
func addr(x Expr) *AddrExpr             { return &AddrExpr{X: x} }
func deref(x Expr) *DerefExpr           { return &DerefExpr{X: x} }
func fld(x Expr, n string) *FieldExpr   { return &FieldExpr{X: x, Name: n, Arrow: true} }
func bin(op token.Kind, a, b Expr) Expr { return &BinExpr{Op: op, X: a, Y: b} }

func TestEqualExpr(t *testing.T) {
	same := [][2]Expr{
		{v("x"), v("x")},
		{lit(3), lit(3)},
		{addr(idx(v("locks"), v("i"))), addr(idx(v("locks"), v("i")))},
		{fld(v("d"), "l"), fld(v("d"), "l")},
		{bin(token.Plus, v("a"), lit(1)), bin(token.Plus, v("a"), lit(1))},
		{deref(v("p")), deref(v("p"))},
	}
	for _, p := range same {
		if !EqualExpr(p[0], p[1]) {
			t.Errorf("%s must equal %s", ExprString(p[0]), ExprString(p[1]))
		}
	}
	diff := [][2]Expr{
		{v("x"), v("y")},
		{lit(3), lit(4)},
		{addr(idx(v("locks"), v("i"))), addr(idx(v("locks"), v("j")))},
		{fld(v("d"), "l"), &FieldExpr{X: v("d"), Name: "l", Arrow: false}},
		{bin(token.Plus, v("a"), lit(1)), bin(token.Minus, v("a"), lit(1))},
		{deref(v("p")), v("p")},
		{&CallExpr{Fun: "f"}, &CallExpr{Fun: "g"}},
		{&CallExpr{Fun: "f", Args: []Expr{lit(1)}}, &CallExpr{Fun: "f"}},
	}
	for _, p := range diff {
		if EqualExpr(p[0], p[1]) {
			t.Errorf("%s must differ from %s", ExprString(p[0]), ExprString(p[1]))
		}
	}
}

func TestCloneExpr(t *testing.T) {
	prog := &Program{NumNodes: 10}
	orig := addr(idx(v("locks"), bin(token.Plus, v("i"), lit(1))))
	c := CloneExpr(prog, orig)
	if !EqualExpr(orig, c) {
		t.Fatal("clone must be equal")
	}
	// Every node of the clone gets a fresh ID from the program.
	seen := map[NodeID]bool{}
	Inspect(c, func(n Node) bool {
		id := n.(Numbered).NodeID()
		if id < 10 || int(id) >= prog.NumNodes || seen[id] {
			t.Errorf("clone node %s has ID %d; want a distinct ID in [10, %d)", ExprString(n.(Expr)), id, prog.NumNodes)
		}
		seen[id] = true
		return true
	})
	if len(seen) != 6 || prog.NumNodes != 16 {
		t.Errorf("clone numbered %d nodes, NumNodes %d; want 6 and 16", len(seen), prog.NumNodes)
	}
	// Mutating the clone must not touch the original.
	c.(*AddrExpr).X.(*IndexExpr).Index.(*BinExpr).Y.(*IntLit).Value = 99
	if EqualExpr(orig, c) {
		t.Fatal("clone must not share nodes")
	}
	// Clone of a call.
	call := &CallExpr{Fun: "spin_lock", Args: []Expr{addr(v("g"))}}
	cc := CloneExpr(prog, call).(*CallExpr)
	if cc == call || cc.Args[0] == call.Args[0] {
		t.Error("call clone must be deep")
	}
}

func TestExprStringMinimalParens(t *testing.T) {
	cases := map[Expr]string{
		bin(token.Plus, lit(1), bin(token.Star, lit(2), lit(3))):   "1 + 2 * 3",
		bin(token.Star, bin(token.Plus, lit(1), lit(2)), lit(3)):   "(1 + 2) * 3",
		bin(token.Minus, bin(token.Minus, lit(5), lit(2)), lit(1)): "5 - 2 - 1",
		deref(addr(v("g"))):                 "*&g",
		&UnExpr{Op: token.Not, X: v("c")}:   "!c",
		&UnExpr{Op: token.Minus, X: v("c")}: "-c",
		&NewExpr{Init: lit(0)}:              "new 0",
	}
	for e, want := range cases {
		if got := ExprString(e); got != want {
			t.Errorf("got %q want %q", got, want)
		}
	}
}

func TestInspectPruning(t *testing.T) {
	e := bin(token.Plus, deref(v("p")), deref(v("q")))
	// Stop at DerefExpr: the VarExprs beneath must not be visited.
	var seen []string
	Inspect(e, func(n Node) bool {
		switch n := n.(type) {
		case *DerefExpr:
			seen = append(seen, "*")
			return false
		case *VarExpr:
			seen = append(seen, n.Name)
		}
		return true
	})
	if strings.Join(seen, "") != "**" {
		t.Errorf("pruning failed: %v", seen)
	}
}

func TestInspectNilSafe(t *testing.T) {
	Inspect(nil, func(Node) bool { t.Fatal("must not be called"); return true })
	// If without else, return without value.
	s := &IfStmt{Cond: lit(1), Then: &Block{}}
	r := &ReturnStmt{}
	count := 0
	Inspect(s, func(Node) bool { count++; return true })
	Inspect(r, func(Node) bool { count++; return true })
	if count == 0 {
		t.Error("nodes not visited")
	}
}

func TestCountNodes(t *testing.T) {
	e := bin(token.Plus, lit(1), lit(2))
	if got := CountNodes(e); got != 3 {
		t.Errorf("CountNodes = %d, want 3", got)
	}
}

func TestStmtSpans(t *testing.T) {
	sp := source.Span{Start: 3, End: 9}
	nodes := []Node{
		&DeclStmt{Sp: sp}, &BindStmt{Sp: sp}, &ConfineStmt{Sp: sp},
		&AssignStmt{Sp: sp}, &ExprStmt{Sp: sp}, &IfStmt{Sp: sp},
		&WhileStmt{Sp: sp}, &ReturnStmt{Sp: sp}, &Block{Sp: sp},
		&StructDecl{Sp: sp}, &GlobalDecl{Sp: sp}, &FunDecl{Sp: sp},
		&Field{Sp: sp}, &Param{Sp: sp},
		&PrimType{Sp: sp}, &NamedType{Sp: sp}, &RefType{Sp: sp}, &ArrayType{Sp: sp},
	}
	for _, n := range nodes {
		if n.Span() != sp {
			t.Errorf("%T.Span() = %+v", n, n.Span())
		}
	}
}

func TestProgramLookups(t *testing.T) {
	p := &Program{
		Structs: []*StructDecl{{Name: "dev"}},
		Globals: []*GlobalDecl{{Name: "locks"}},
		Funs:    []*FunDecl{{Name: "main"}},
	}
	if p.Struct("dev") == nil || p.Struct("nope") != nil {
		t.Error("Struct lookup")
	}
	if p.Global("locks") == nil || p.Global("nope") != nil {
		t.Error("Global lookup")
	}
	if p.Fun("main") == nil || p.Fun("nope") != nil {
		t.Error("Fun lookup")
	}
	if p.Span().IsValid() {
		t.Error("program without file has no span")
	}
}

func TestBindKindString(t *testing.T) {
	if BindLet.String() != "let" || BindRestrict.String() != "restrict" {
		t.Error("bind kind strings")
	}
}

func TestPrimKindString(t *testing.T) {
	if PrimInt.String() != "int" || PrimUnit.String() != "unit" || PrimLock.String() != "lock" {
		t.Error("prim kind strings")
	}
}

func TestTypeString(t *testing.T) {
	ty := &RefType{Elem: &ArrayType{Elem: &PrimType{Kind: PrimLock}, Size: 4}}
	if got := TypeString(ty); got != "ref lock[4]" {
		t.Errorf("TypeString = %q", got)
	}
	if got := TypeString(&NamedType{Name: "dev"}); got != "dev" {
		t.Errorf("named: %q", got)
	}
}
