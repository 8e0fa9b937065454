package types

import "localalias/internal/ast"

// EqualResolved reports whether a and b are the same expression: they
// must be syntactically identical and every variable occurrence must
// resolve to the same symbol. This is the occurrence test behind the
// confine translation "confine e1 in e2[e1/x]" — the paper assumes
// all variables are renamed apart; resolving through symbols makes
// the test shadowing-proof instead.
func (in *Info) EqualResolved(a, b ast.Expr) bool {
	if !ast.EqualExpr(a, b) {
		return false
	}
	var avs, bvs []*ast.VarExpr
	collect := func(x ast.Expr, out *[]*ast.VarExpr) {
		ast.Inspect(x, func(n ast.Node) bool {
			if v, ok := n.(*ast.VarExpr); ok {
				*out = append(*out, v)
			}
			return true
		})
	}
	collect(a, &avs)
	collect(b, &bvs)
	if len(avs) != len(bvs) {
		return false
	}
	for i := range avs {
		sa, sb := in.UseOf(avs[i]), in.UseOf(bvs[i])
		if sa == nil || sb == nil || sa != sb {
			return false
		}
	}
	return true
}
