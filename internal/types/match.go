package types

import "localalias/internal/ast"

// EqualResolved reports whether a and b are the same expression: they
// must be syntactically identical and every variable occurrence must
// resolve to the same symbol. This is the occurrence test behind the
// confine translation "confine e1 in e2[e1/x]" — the paper assumes
// all variables are renamed apart; resolving through symbols makes
// the test shadowing-proof instead.
func (in *Info) EqualResolved(a, b ast.Expr) bool {
	return ast.EqualExpr(a, b) && in.sameSymbols(a, b)
}

// sameSymbols reports whether every variable of a, which is
// syntactically identical to b, resolves to a symbol, the one its
// counterpart in b resolves to. Inference asks this of every
// expression inside a confine, so it walks both trees in step rather
// than collecting their variables.
func (in *Info) sameSymbols(a, b ast.Expr) bool {
	switch a := a.(type) {
	case *ast.VarExpr:
		sym := in.UseOf(a)
		return sym != nil && sym == in.UseOf(b.(*ast.VarExpr))
	case *ast.NewExpr:
		return in.sameSymbols(a.Init, b.(*ast.NewExpr).Init)
	case *ast.DerefExpr:
		return in.sameSymbols(a.X, b.(*ast.DerefExpr).X)
	case *ast.AddrExpr:
		return in.sameSymbols(a.X, b.(*ast.AddrExpr).X)
	case *ast.IndexExpr:
		b := b.(*ast.IndexExpr)
		return in.sameSymbols(a.X, b.X) && in.sameSymbols(a.Index, b.Index)
	case *ast.FieldExpr:
		return in.sameSymbols(a.X, b.(*ast.FieldExpr).X)
	case *ast.BinExpr:
		b := b.(*ast.BinExpr)
		return in.sameSymbols(a.X, b.X) && in.sameSymbols(a.Y, b.Y)
	case *ast.UnExpr:
		return in.sameSymbols(a.X, b.(*ast.UnExpr).X)
	case *ast.CallExpr:
		b := b.(*ast.CallExpr)
		for i := range a.Args {
			if !in.sameSymbols(a.Args[i], b.Args[i]) {
				return false
			}
		}
	}
	return true
}
