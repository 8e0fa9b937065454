package confine

import (
	"localalias/internal/ast"
	"localalias/internal/types"
)

// Plant runs the planter alone over prog, extending info, and reports
// how many candidates it planted and how many wraps it refused.
func Plant(prog *ast.Program, info *types.Info) (planted, refused int) {
	p := plant(prog, info)
	return len(p.planted), p.refused
}
