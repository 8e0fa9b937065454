package ast

import (
	"fmt"
	"io"
	"strings"

	"localalias/internal/token"
)

// Fprint writes a source-form rendering of the node to w. The output
// re-parses to an equivalent tree (modulo spans) and is used to show
// the results of restrict/confine inference.
func Fprint(w io.Writer, n Node) error {
	p := &printer{w: w}
	p.node(n)
	return p.err
}

// String renders a node to a string.
func String(n Node) string {
	var b strings.Builder
	_ = Fprint(&b, n)
	return b.String()
}

type printer struct {
	w      io.Writer
	indent int
	err    error
}

func (p *printer) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *printer) line(format string, args ...any) {
	p.printf("%s", strings.Repeat("    ", p.indent))
	p.printf(format, args...)
	p.printf("\n")
}

func (p *printer) node(n Node) {
	switch n := n.(type) {
	case *Program:
		for _, d := range n.Imports {
			p.node(d)
		}
		for _, d := range n.Structs {
			p.node(d)
		}
		for _, d := range n.Globals {
			p.node(d)
		}
		for i, d := range n.Funs {
			if i > 0 || len(n.Structs)+len(n.Globals) > 0 {
				p.printf("\n")
			}
			p.node(d)
		}
	case *ImportDecl:
		p.line("import %q;", n.Path)
	case *StructDecl:
		p.line("struct %s {", n.Name)
		p.indent++
		for _, f := range n.Fields {
			p.line("%s: %s;", f.Name, TypeString(f.Type))
		}
		p.indent--
		p.line("}")
	case *GlobalDecl:
		p.line("global %s: %s;", n.Name, TypeString(n.Type))
	case *FunDecl:
		var params []string
		for _, pa := range n.Params {
			q := ""
			if pa.Restrict {
				q = "restrict "
			}
			params = append(params, fmt.Sprintf("%s: %s%s", pa.Name, q, TypeString(pa.Type)))
		}
		sig := fmt.Sprintf("fun %s(%s)", n.Name, strings.Join(params, ", "))
		if n.Result != nil {
			sig += ": " + TypeString(n.Result)
		}
		p.line("%s {", sig)
		p.indent++
		p.stmts(n.Body)
		p.indent--
		p.line("}")
	case Stmt:
		p.stmt(n)
	case Expr:
		p.printf("%s", ExprString(n))
	case TypeExpr:
		p.printf("%s", TypeString(n))
	default:
		p.printf("/* ??? %T */", n)
	}
}

func (p *printer) stmts(b *Block) {
	for _, s := range b.Stmts {
		p.stmt(s)
	}
}

func (p *printer) block(b *Block, head string) {
	p.line("%s {", head)
	p.indent++
	p.stmts(b)
	p.indent--
	p.line("}")
}

func (p *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *DeclStmt:
		kw := "let"
		if s.Restrict {
			kw = "restrict" // inferred: remainder-of-block scope
		}
		p.line("%s %s = %s;", kw, s.Name, ExprString(s.Init))
	case *BindStmt:
		p.block(s.Body, fmt.Sprintf("%s %s = %s", s.Kind, s.Name, ExprString(s.Init)))
	case *ConfineStmt:
		head := fmt.Sprintf("confine %s", ExprString(s.Expr))
		if s.Inferred {
			head = head + " /*inferred*/"
		}
		p.block(s.Body, head)
	case *AssignStmt:
		p.line("%s = %s;", ExprString(s.LHS), ExprString(s.RHS))
	case *ExprStmt:
		p.line("%s;", ExprString(s.X))
	case *IfStmt:
		p.line("if (%s) {", ExprString(s.Cond))
		p.indent++
		p.stmts(s.Then)
		p.indent--
		if s.Else != nil {
			p.line("} else {")
			p.indent++
			p.stmts(s.Else)
			p.indent--
		}
		p.line("}")
	case *WhileStmt:
		p.block(s.Body, fmt.Sprintf("while (%s)", ExprString(s.Cond)))
	case *ReturnStmt:
		if s.X == nil {
			p.line("return;")
		} else {
			p.line("return %s;", ExprString(s.X))
		}
	case *Block:
		p.block(s, "")
	default:
		p.line("/* ??? %T */", s)
	}
}

// TypeString renders a syntactic type.
func TypeString(t TypeExpr) string {
	switch t := t.(type) {
	case *PrimType:
		return t.Kind.String()
	case *NamedType:
		return t.Name
	case *RefType:
		return "ref " + TypeString(t.Elem)
	case *ArrayType:
		return fmt.Sprintf("%s[%d]", TypeString(t.Elem), t.Size)
	default:
		return fmt.Sprintf("?type(%T)", t)
	}
}

// ExprString renders an expression with minimal parentheses.
func ExprString(e Expr) string {
	return exprString(e, 0)
}

// Operand precedences above every binary operator's: a prefix
// operator (*, &, -, !, new) prints its operand at precPrefix and a
// postfix one ([i], .f, ->f) at precPostfix. A prefix expression
// under a postfix one is parenthesized, so (*p).f does not print as
// *p.f, which reads back as *(p.f).
const (
	precPrefix  = 10
	precPostfix = 11
)

func exprString(e Expr, parentPrec int) string {
	switch e := e.(type) {
	case *IntLit:
		return fmt.Sprintf("%d", e.Value)
	case *VarExpr:
		return e.Name
	case *NewExpr:
		return prefixString("new ", e.Init, parentPrec)
	case *DerefExpr:
		return prefixString("*", e.X, parentPrec)
	case *AddrExpr:
		return prefixString("&", e.X, parentPrec)
	case *IndexExpr:
		return exprString(e.X, precPostfix) + "[" + exprString(e.Index, 0) + "]"
	case *FieldExpr:
		sep := "."
		if e.Arrow {
			sep = "->"
		}
		return exprString(e.X, precPostfix) + sep + e.Name
	case *BinExpr:
		prec := e.Op.Precedence()
		s := exprString(e.X, prec) + " " + e.Op.String() + " " + exprString(e.Y, prec+1)
		if prec < parentPrec {
			return "(" + s + ")"
		}
		return s
	case *UnExpr:
		op := "!"
		if e.Op == token.Minus {
			op = "-"
		}
		return prefixString(op, e.X, parentPrec)
	case *CallExpr:
		var args []string
		for _, a := range e.Args {
			args = append(args, exprString(a, 0))
		}
		return e.Fun + "(" + strings.Join(args, ", ") + ")"
	default:
		return fmt.Sprintf("?expr(%T)", e)
	}
}

// prefixString renders op applied to x, parenthesized when it is the
// operand of a postfix operator.
func prefixString(op string, x Expr, parentPrec int) string {
	s := op + exprString(x, precPrefix)
	if parentPrec > precPrefix {
		return "(" + s + ")"
	}
	return s
}

// EqualExpr reports whether two expressions are syntactically
// identical (ignoring spans). The confine heuristic of Section 7 uses
// this to match change_type arguments that "match syntactically".
func EqualExpr(a, b Expr) bool {
	switch a := a.(type) {
	case *IntLit:
		b, ok := b.(*IntLit)
		return ok && a.Value == b.Value
	case *VarExpr:
		b, ok := b.(*VarExpr)
		return ok && a.Name == b.Name
	case *NewExpr:
		b, ok := b.(*NewExpr)
		return ok && EqualExpr(a.Init, b.Init)
	case *DerefExpr:
		b, ok := b.(*DerefExpr)
		return ok && EqualExpr(a.X, b.X)
	case *AddrExpr:
		b, ok := b.(*AddrExpr)
		return ok && EqualExpr(a.X, b.X)
	case *IndexExpr:
		b, ok := b.(*IndexExpr)
		return ok && EqualExpr(a.X, b.X) && EqualExpr(a.Index, b.Index)
	case *FieldExpr:
		b, ok := b.(*FieldExpr)
		return ok && a.Name == b.Name && a.Arrow == b.Arrow && EqualExpr(a.X, b.X)
	case *BinExpr:
		b, ok := b.(*BinExpr)
		return ok && a.Op == b.Op && EqualExpr(a.X, b.X) && EqualExpr(a.Y, b.Y)
	case *UnExpr:
		b, ok := b.(*UnExpr)
		return ok && a.Op == b.Op && EqualExpr(a.X, b.X)
	case *CallExpr:
		b, ok := b.(*CallExpr)
		if !ok || a.Fun != b.Fun || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !EqualExpr(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// CloneExpr returns a deep copy of e sharing no mutable nodes with the
// original. Spans are preserved; every node of the copy gets a fresh
// ID from prog, so tables indexed by NodeID keep its entries apart
// from the original's.
func CloneExpr(prog *Program, e Expr) Expr {
	clone := func(x Expr) Expr { return CloneExpr(prog, x) }
	switch e := e.(type) {
	case *IntLit:
		c := *e
		c.ID = prog.NewID()
		return &c
	case *VarExpr:
		c := *e
		c.ID = prog.NewID()
		return &c
	case *NewExpr:
		return &NewExpr{ID: prog.NewID(), Init: clone(e.Init), Sp: e.Sp}
	case *DerefExpr:
		return &DerefExpr{ID: prog.NewID(), X: clone(e.X), Sp: e.Sp}
	case *AddrExpr:
		return &AddrExpr{ID: prog.NewID(), X: clone(e.X), Sp: e.Sp}
	case *IndexExpr:
		return &IndexExpr{ID: prog.NewID(), X: clone(e.X), Index: clone(e.Index), Sp: e.Sp}
	case *FieldExpr:
		return &FieldExpr{ID: prog.NewID(), X: clone(e.X), Name: e.Name, Arrow: e.Arrow, Sp: e.Sp}
	case *BinExpr:
		return &BinExpr{ID: prog.NewID(), Op: e.Op, X: clone(e.X), Y: clone(e.Y), Sp: e.Sp}
	case *UnExpr:
		return &UnExpr{ID: prog.NewID(), Op: e.Op, X: clone(e.X), Sp: e.Sp}
	case *CallExpr:
		c := &CallExpr{ID: prog.NewID(), Fun: e.Fun, Sp: e.Sp}
		for _, a := range e.Args {
			c.Args = append(c.Args, clone(a))
		}
		return c
	default:
		return e
	}
}
