// Package parser implements a recursive-descent parser for MiniC.
//
// Grammar (EBNF, "//" comments elided):
//
//	program    = { importDecl | structDecl | globalDecl | funDecl } .
//	importDecl = "import" STRING ";" .
//	structDecl = "struct" IDENT "{" { IDENT ":" type ";" } "}" .
//	globalDecl = "global" IDENT ":" type ";" .
//	funDecl    = "fun" IDENT "(" [ params ] ")" [ ":" type ] block .
//	params     = IDENT ":" type { "," IDENT ":" type } .
//	type       = ( "int" | "unit" | "lock" | "ref" type | IDENT )
//	             { "[" INT "]" } .
//	block      = "{" { stmt } "}" .
//	stmt       = "let" IDENT "=" expr ( ";" | [ "in" ] block )
//	           | "restrict" IDENT "=" expr ( ";" | [ "in" ] block )
//	           | "confine" expr [ "in" ] block
//	           | "if" "(" expr ")" block [ "else" ( block | ifStmt ) ]
//	           | "while" "(" expr ")" block
//	           | "return" [ expr ] ";"
//	           | block
//	           | expr [ "=" expr ] ";" .
//	expr       = binary (precedence climbing over || && == != < <= > >=
//	             + - * / %) .
//	unary      = ( "*" | "&" | "!" | "-" | "new" ) unary | postfix .
//	postfix    = primary { "[" expr "]" | "." IDENT [ callArgs ]
//	             | "->" IDENT } .
//	primary    = INT | IDENT [ callArgs ] | "(" expr ")" .
//	callArgs   = "(" [ expr { "," expr } ] ")" .
//
// IDENT "." IDENT followed by callArgs is a qualified call pkg.fn(...)
// into an imported module; MiniC has no method calls or function-typed
// fields, so the form is unambiguous.
package parser

import (
	"fmt"
	"strconv"

	"localalias/internal/ast"
	"localalias/internal/lexer"
	"localalias/internal/source"
	"localalias/internal/token"
)

// Parse lexes and parses src as a compilation unit named name.
// Diagnostics (lexical and syntactic) are appended to diags; the
// returned program contains whatever was recovered.
func Parse(name, src string, diags *source.Diagnostics) *ast.Program {
	file := source.NewFile(name, src)
	return ParseFile(file, diags)
}

// ParseFile parses an existing source.File.
func ParseFile(file *source.File, diags *source.Diagnostics) *ast.Program {
	p := newParser(file, diags)
	prog := p.program()
	p.finish()
	return prog
}

// ParseExpr parses a standalone expression (used by tests and by the
// confine CLI to accept expressions on the command line).
func ParseExpr(src string, diags *source.Diagnostics) ast.Expr {
	p := newParser(source.NewFile("<expr>", src), diags)
	e := p.expr()
	p.expect(token.EOF)
	p.finish()
	return e
}

// parser pulls tokens from the lexer one at a time: the grammar needs
// one token of lookahead, so no token slice is ever built.
type parser struct {
	file  *source.File
	diags *source.Diagnostics
	lx    *lexer.Lexer
	cur   lexer.Token
	// pos counts the tokens consumed so far; loops compare it to
	// guarantee progress.
	pos int
	// syntax holds the syntax diagnostics until finish: the lexer
	// reports to diags as it goes, and all lexical diagnostics come
	// before the syntax ones.
	syntax source.Diagnostics
	// nodes counts the NodeIDs handed out so far.
	nodes int
}

func newParser(file *source.File, diags *source.Diagnostics) *parser {
	p := &parser{file: file, diags: diags, lx: lexer.New(file, diags)}
	p.cur = p.lx.Next()
	return p
}

// finish lexes whatever input the parse left unread, for its lexical
// diagnostics, then appends the syntax diagnostics after them.
func (p *parser) finish() {
	for t := p.cur; t.Kind != token.EOF; {
		t = p.lx.Next()
	}
	p.diags.List = append(p.diags.List, p.syntax.List...)
}

// id numbers the next node.
func (p *parser) id() ast.NodeID {
	p.nodes++
	return ast.NodeID(p.nodes - 1)
}

func (p *parser) tok() lexer.Token  { return p.cur }
func (p *parser) kind() token.Kind  { return p.cur.Kind }
func (p *parser) span() source.Span { return p.cur.Span }

func (p *parser) at(k token.Kind) bool { return p.cur.Kind == k }

func (p *parser) advance() lexer.Token {
	t := p.cur
	if t.Kind != token.EOF {
		p.cur = p.lx.Next()
		p.pos++
	}
	return t
}

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) errorf(sp source.Span, format string, args ...any) {
	p.syntax.Errorf(p.file, sp, "parse", format, args...)
}

func (p *parser) expect(k token.Kind) lexer.Token {
	if p.at(k) {
		return p.advance()
	}
	got := p.tok()
	what := got.Kind.String()
	if got.Lit != "" {
		what = fmt.Sprintf("%s %q", what, got.Lit)
	}
	p.errorf(got.Span, "expected %q, found %s", k.String(), what)
	return lexer.Token{Kind: k, Span: got.Span}
}

// sync skips tokens until a likely statement/declaration boundary.
func (p *parser) sync(stops ...token.Kind) {
	for !p.at(token.EOF) {
		k := p.kind()
		for _, s := range stops {
			if k == s {
				return
			}
		}
		switch k {
		case token.Semi:
			p.advance()
			return
		case token.RBrace, token.KwFun, token.KwGlobal, token.KwStruct, token.KwImport:
			return
		}
		p.advance()
	}
}

// ---------------------------------------------------------------------
// Declarations

func (p *parser) program() *ast.Program {
	prog := &ast.Program{File: p.file}
	for !p.at(token.EOF) {
		switch p.kind() {
		case token.KwImport:
			prog.Imports = append(prog.Imports, p.importDecl())
		case token.KwStruct:
			prog.Structs = append(prog.Structs, p.structDecl())
		case token.KwGlobal:
			prog.Globals = append(prog.Globals, p.globalDecl())
		case token.KwFun:
			prog.Funs = append(prog.Funs, p.funDecl())
		default:
			p.errorf(p.span(), "expected declaration (import, struct, global or fun), found %q", p.kind())
			p.sync()
			if p.at(token.Semi) || p.at(token.RBrace) {
				p.advance()
			}
		}
	}
	prog.NumNodes = p.nodes
	return prog
}

func (p *parser) importDecl() *ast.ImportDecl {
	start := p.expect(token.KwImport).Span
	path := p.expect(token.String)
	end := p.expect(token.Semi).Span
	if path.Kind == token.String && path.Lit == "" {
		p.errorf(path.Span, "empty import path")
	}
	return &ast.ImportDecl{Path: path.Lit, Sp: start.Union(end)}
}

func (p *parser) structDecl() *ast.StructDecl {
	start := p.expect(token.KwStruct).Span
	name := p.expect(token.Ident)
	d := &ast.StructDecl{Name: name.Lit}
	p.expect(token.LBrace)
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		before := p.pos
		fname := p.expect(token.Ident)
		p.expect(token.Colon)
		ftype := p.typeExpr()
		semi := p.expect(token.Semi)
		d.Fields = append(d.Fields, &ast.Field{
			Name: fname.Lit,
			Type: ftype,
			Sp:   fname.Span.Union(semi.Span),
		})
		if p.pos == before {
			// Defensive: guarantee progress on malformed fields.
			p.advance()
		}
	}
	end := p.expect(token.RBrace).Span
	d.Sp = start.Union(end)
	return d
}

func (p *parser) globalDecl() *ast.GlobalDecl {
	start := p.expect(token.KwGlobal).Span
	name := p.expect(token.Ident)
	p.expect(token.Colon)
	typ := p.typeExpr()
	end := p.expect(token.Semi).Span
	return &ast.GlobalDecl{ID: p.id(), Name: name.Lit, Type: typ, Sp: start.Union(end)}
}

func (p *parser) funDecl() *ast.FunDecl {
	start := p.expect(token.KwFun).Span
	name := p.expect(token.Ident)
	d := &ast.FunDecl{Name: name.Lit}
	p.expect(token.LParen)
	for !p.at(token.RParen) && !p.at(token.EOF) {
		pname := p.expect(token.Ident)
		p.expect(token.Colon)
		restricted := p.accept(token.KwRestrict)
		ptype := p.typeExpr()
		d.Params = append(d.Params, &ast.Param{
			ID:       p.id(),
			Name:     pname.Lit,
			Type:     ptype,
			Restrict: restricted,
			Sp:       pname.Span.Union(ptype.Span()),
		})
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.RParen)
	if p.accept(token.Colon) {
		d.Result = p.typeExpr()
	}
	d.Body = p.block()
	d.Sp = start.Union(d.Body.Span())
	return d
}

// ---------------------------------------------------------------------
// Types

func (p *parser) typeExpr() ast.TypeExpr {
	var t ast.TypeExpr
	sp := p.span()
	switch p.kind() {
	case token.KwInt:
		p.advance()
		t = &ast.PrimType{Kind: ast.PrimInt, Sp: sp}
	case token.KwUnit:
		p.advance()
		t = &ast.PrimType{Kind: ast.PrimUnit, Sp: sp}
	case token.KwLock:
		p.advance()
		t = &ast.PrimType{Kind: ast.PrimLock, Sp: sp}
	case token.KwRef:
		p.advance()
		elem := p.typeExpr()
		return &ast.RefType{Elem: elem, Sp: sp.Union(elem.Span())}
	case token.Ident:
		name := p.advance()
		t = &ast.NamedType{Name: name.Lit, Sp: sp}
	default:
		p.errorf(sp, "expected type, found %q", p.kind())
		t = &ast.PrimType{Kind: ast.PrimInt, Sp: sp}
	}
	for p.at(token.LBrack) {
		p.advance()
		szTok := p.expect(token.Int)
		size, _ := strconv.Atoi(szTok.Lit)
		if size <= 0 {
			size = 1
			if szTok.Lit != "" {
				p.errorf(szTok.Span, "array size must be positive, got %q", szTok.Lit)
			}
		}
		end := p.expect(token.RBrack).Span
		t = &ast.ArrayType{Elem: t, Size: size, Sp: sp.Union(end)}
	}
	return t
}

// ---------------------------------------------------------------------
// Statements

func (p *parser) block() *ast.Block {
	start := p.expect(token.LBrace).Span
	b := &ast.Block{}
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		before := p.pos
		b.Stmts = append(b.Stmts, p.stmt())
		if p.pos == before {
			// Defensive: guarantee progress even on malformed input.
			p.advance()
		}
	}
	end := p.expect(token.RBrace).Span
	b.Sp = start.Union(end)
	return b
}

func (p *parser) stmt() ast.Stmt {
	switch p.kind() {
	case token.KwLet:
		return p.letStmt()
	case token.KwRestrict:
		return p.restrictStmt()
	case token.KwConfine:
		return p.confineStmt()
	case token.KwIf:
		return p.ifStmt()
	case token.KwWhile:
		return p.whileStmt()
	case token.KwReturn:
		return p.returnStmt()
	case token.LBrace:
		return p.block()
	default:
		return p.simpleStmt()
	}
}

func (p *parser) letStmt() ast.Stmt {
	start := p.expect(token.KwLet).Span
	name := p.expect(token.Ident)
	p.expect(token.Assign)
	init := p.expr()
	if p.at(token.Semi) {
		end := p.advance().Span
		return &ast.DeclStmt{ID: p.id(), Name: name.Lit, Init: init, Sp: start.Union(end)}
	}
	p.accept(token.KwIn)
	body := p.block()
	return &ast.BindStmt{
		ID:   p.id(),
		Kind: ast.BindLet,
		Name: name.Lit,
		Init: init,
		Body: body,
		Sp:   start.Union(body.Span()),
	}
}

func (p *parser) restrictStmt() ast.Stmt {
	start := p.expect(token.KwRestrict).Span
	name := p.expect(token.Ident)
	p.expect(token.Assign)
	init := p.expr()
	if p.at(token.Semi) {
		// A restricted let: its scope is the rest of the block, as
		// for the lets restrict inference marks.
		end := p.advance().Span
		return &ast.DeclStmt{ID: p.id(), Name: name.Lit, Init: init, Restrict: true, Sp: start.Union(end)}
	}
	p.accept(token.KwIn)
	body := p.block()
	return &ast.BindStmt{
		ID:   p.id(),
		Kind: ast.BindRestrict,
		Name: name.Lit,
		Init: init,
		Body: body,
		Sp:   start.Union(body.Span()),
	}
}

func (p *parser) confineStmt() ast.Stmt {
	start := p.expect(token.KwConfine).Span
	e := p.expr()
	p.accept(token.KwIn)
	body := p.block()
	return &ast.ConfineStmt{ID: p.id(), Expr: e, Body: body, Sp: start.Union(body.Span())}
}

func (p *parser) ifStmt() ast.Stmt {
	start := p.expect(token.KwIf).Span
	p.expect(token.LParen)
	cond := p.expr()
	p.expect(token.RParen)
	then := p.block()
	s := &ast.IfStmt{Cond: cond, Then: then, Sp: start.Union(then.Span())}
	if p.accept(token.KwElse) {
		if p.at(token.KwIf) {
			inner := p.ifStmt()
			s.Else = &ast.Block{Stmts: []ast.Stmt{inner}, Sp: inner.Span()}
		} else {
			s.Else = p.block()
		}
		s.Sp = s.Sp.Union(s.Else.Span())
	}
	return s
}

func (p *parser) whileStmt() ast.Stmt {
	start := p.expect(token.KwWhile).Span
	p.expect(token.LParen)
	cond := p.expr()
	p.expect(token.RParen)
	body := p.block()
	return &ast.WhileStmt{Cond: cond, Body: body, Sp: start.Union(body.Span())}
}

func (p *parser) returnStmt() ast.Stmt {
	start := p.expect(token.KwReturn).Span
	s := &ast.ReturnStmt{Sp: start}
	if !p.at(token.Semi) {
		s.X = p.expr()
	}
	end := p.expect(token.Semi).Span
	s.Sp = start.Union(end)
	return s
}

func (p *parser) simpleStmt() ast.Stmt {
	start := p.span()
	e := p.expr()
	if p.accept(token.Assign) {
		rhs := p.expr()
		end := p.expect(token.Semi).Span
		return &ast.AssignStmt{LHS: e, RHS: rhs, Sp: start.Union(end)}
	}
	end := p.expect(token.Semi).Span
	return &ast.ExprStmt{X: e, Sp: start.Union(end)}
}

// ---------------------------------------------------------------------
// Expressions

func (p *parser) expr() ast.Expr { return p.binary(1) }

func (p *parser) binary(minPrec int) ast.Expr {
	lhs := p.unary()
	for {
		prec := p.kind().Precedence()
		if prec < minPrec {
			return lhs
		}
		op := p.advance().Kind
		rhs := p.binary(prec + 1)
		lhs = &ast.BinExpr{ID: p.id(), Op: op, X: lhs, Y: rhs, Sp: lhs.Span().Union(rhs.Span())}
	}
}

func (p *parser) unary() ast.Expr {
	sp := p.span()
	switch p.kind() {
	case token.Star:
		p.advance()
		x := p.unary()
		return &ast.DerefExpr{ID: p.id(), X: x, Sp: sp.Union(x.Span())}
	case token.Amp:
		p.advance()
		x := p.unary()
		return &ast.AddrExpr{ID: p.id(), X: x, Sp: sp.Union(x.Span())}
	case token.Not:
		p.advance()
		x := p.unary()
		return &ast.UnExpr{ID: p.id(), Op: token.Not, X: x, Sp: sp.Union(x.Span())}
	case token.Minus:
		p.advance()
		x := p.unary()
		return &ast.UnExpr{ID: p.id(), Op: token.Minus, X: x, Sp: sp.Union(x.Span())}
	case token.KwNew:
		p.advance()
		x := p.unary()
		return &ast.NewExpr{ID: p.id(), Init: x, Sp: sp.Union(x.Span())}
	default:
		return p.postfix()
	}
}

func (p *parser) postfix() ast.Expr {
	e := p.primary()
	for {
		switch p.kind() {
		case token.LBrack:
			p.advance()
			idx := p.expr()
			end := p.expect(token.RBrack).Span
			e = &ast.IndexExpr{ID: p.id(), X: e, Index: idx, Sp: e.Span().Union(end)}
		case token.Dot:
			p.advance()
			name := p.expect(token.Ident)
			if v, ok := e.(*ast.VarExpr); ok && p.at(token.LParen) {
				// Qualified call pkg.fn(args) into an imported module.
				p.advance()
				call := &ast.CallExpr{ID: p.id(), Fun: v.Name + "." + name.Lit}
				for !p.at(token.RParen) && !p.at(token.EOF) {
					call.Args = append(call.Args, p.expr())
					if !p.accept(token.Comma) {
						break
					}
				}
				end := p.expect(token.RParen).Span
				call.Sp = e.Span().Union(end)
				e = call
				continue
			}
			e = &ast.FieldExpr{ID: p.id(), X: e, Name: name.Lit, Sp: e.Span().Union(name.Span)}
		case token.Arrow:
			p.advance()
			name := p.expect(token.Ident)
			e = &ast.FieldExpr{ID: p.id(), X: e, Name: name.Lit, Arrow: true, Sp: e.Span().Union(name.Span)}
		default:
			return e
		}
	}
}

func (p *parser) primary() ast.Expr {
	sp := p.span()
	switch p.kind() {
	case token.Int:
		t := p.advance()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			p.errorf(t.Span, "invalid integer literal %q", t.Lit)
		}
		return &ast.IntLit{ID: p.id(), Value: v, Sp: t.Span}
	case token.Ident:
		t := p.advance()
		if p.at(token.LParen) {
			p.advance()
			call := &ast.CallExpr{ID: p.id(), Fun: t.Lit}
			for !p.at(token.RParen) && !p.at(token.EOF) {
				call.Args = append(call.Args, p.expr())
				if !p.accept(token.Comma) {
					break
				}
			}
			end := p.expect(token.RParen).Span
			call.Sp = t.Span.Union(end)
			return call
		}
		return &ast.VarExpr{ID: p.id(), Name: t.Lit, Sp: t.Span}
	case token.LParen:
		p.advance()
		e := p.expr()
		p.expect(token.RParen)
		return e
	default:
		p.errorf(sp, "expected expression, found %q", p.kind())
		p.sync(token.Semi, token.RParen, token.RBrack, token.RBrace)
		return &ast.IntLit{ID: p.id(), Value: 0, Sp: sp}
	}
}
