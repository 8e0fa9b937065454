package confine

import (
	"testing"

	"localalias/internal/ast"
	"localalias/internal/source"
	"localalias/internal/types"
)

// Planting must never make a well-typed module ill-typed. Each program
// pairs change_types of one expression text whose wrap would break
// scoping: the first would hoist a name bound in an inner block above
// its binder, the second would end a let's scope before its last use.
func TestPlantKeepsScoping(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"inner-bound name", `
struct S { lk: lock; n: int; }
fun f(a: ref S, b: ref S, c: int) {
    if (c) { let q = a; spin_lock(&q->lk); }
    if (c) { let q = b; spin_unlock(&q->lk); }
}
`},
		{"let used after the range", `
struct S { lk: lock; n: int; }
fun f(a: ref S) {
    let x = a;
    spin_lock(&x->lk);
    let y = a;
    spin_unlock(&x->lk);
    y->n = 1;
}
`},
	} {
		name := tc.name
		prog := parse(t, tc.src)
		var diags source.Diagnostics
		res, err := InferAndApply(prog, &diags, Options{Params: true, Lets: true})
		if err != nil {
			t.Errorf("%s: %v\n%s", name, err, diags.String())
			continue
		}
		if res.Planted != 0 {
			t.Errorf("%s: planted %d candidate(s) that break scope:\n%s",
				name, res.Planted, ast.String(prog))
		}
		var again source.Diagnostics
		types.Check(prog, &again)
		if again.HasErrors() {
			t.Errorf("%s: rewritten program fails checking: %s", name, again.String())
		}
	}
}
