package confine_test

import (
	"fmt"
	"testing"

	"localalias/internal/ast"
	"localalias/internal/confine"
	"localalias/internal/drivergen"
	"localalias/internal/parser"
	"localalias/internal/progen"
	"localalias/internal/source"
	"localalias/internal/types"
)

// plantAndRecheck plants candidates in src using the program's own
// check, then checks the planted program afresh. Every numbered node
// of the planted program must have a distinct ID below NumNodes; the
// fresh check must report no errors and agree with the extended Info
// index by index — the clones' copied entries and the originals'
// alike. Symbols are compared by their defining node, types
// structurally and by rendering.
func plantAndRecheck(name, src string) (planted, refused int, err error) {
	var diags source.Diagnostics
	prog := parser.Parse(name, src, &diags)
	info := types.Check(prog, &diags)
	if diags.HasErrors() {
		return 0, 0, fmt.Errorf("input fails checking: %s", diags.String())
	}
	planted, refused = confine.Plant(prog, info)

	nodes := make(map[ast.NodeID]ast.Numbered)
	ast.Inspect(prog, func(n ast.Node) bool {
		if nn, ok := n.(ast.Numbered); ok {
			id := nn.NodeID()
			if id < 0 || int(id) >= prog.NumNodes {
				err = fmt.Errorf("%T at %v has ID %d, outside [0, %d)", n, n.Span(), id, prog.NumNodes)
			} else if prev := nodes[id]; prev != nil {
				err = fmt.Errorf("%T at %v and %T at %v share ID %d", prev, prev.Span(), n, n.Span(), id)
			}
			nodes[id] = nn
		}
		return err == nil
	})
	if err != nil {
		return planted, refused, err
	}

	var again source.Diagnostics
	fresh := types.Check(prog, &again)
	if again.HasErrors() {
		return planted, refused, fmt.Errorf("planted program fails checking: %s\n%s", again.String(), ast.String(prog))
	}
	if fresh.Typed != info.Typed || fresh.NumBinders != info.NumBinders {
		return planted, refused, fmt.Errorf("entry counts differ: typed %d/%d, binders %d/%d",
			fresh.Typed, info.Typed, fresh.NumBinders, info.NumBinders)
	}
	for _, tables := range [][2]int{
		{len(fresh.ExprTypes), len(info.ExprTypes)}, {len(fresh.Uses), len(info.Uses)},
		{len(fresh.Binders), len(info.Binders)},
	} {
		if tables[0] != prog.NumNodes || tables[1] != prog.NumNodes {
			return planted, refused, fmt.Errorf("table lengths %d (fresh) and %d (planted), want NumNodes %d", tables[0], tables[1], prog.NumNodes)
		}
	}
	sameSym := func(a, b *types.Symbol) bool { return (a == nil) == (b == nil) && (a == nil || a.Def == b.Def) }
	for id := range prog.NumNodes {
		at := fmt.Sprintf("node %d", id)
		if n := nodes[ast.NodeID(id)]; n != nil {
			at = fmt.Sprintf("%T at %v", n, n.Span())
		}
		got, want := info.ExprTypes[id], fresh.ExprTypes[id]
		if (got == nil) != (want == nil) || want != nil && (!types.Equal(got, want) || got.String() != want.String()) {
			return planted, refused, fmt.Errorf("%s: type %v, a fresh check says %v", at, got, want)
		}
		if !sameSym(info.Uses[id], fresh.Uses[id]) {
			return planted, refused, fmt.Errorf("%s resolves to a different symbol than a fresh check finds", at)
		}
		if !sameSym(info.Binders[id], fresh.Binders[id]) {
			return planted, refused, fmt.Errorf("%s binds a different symbol than a fresh check finds", at)
		}
	}
	return planted, refused, nil
}

func TestPlantedEntriesMatchFreshCheck(t *testing.T) {
	corpusPlanted := 0
	for _, spec := range drivergen.Corpus() {
		planted, refused, err := plantAndRecheck(spec.Name+".mc", spec.Source())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if refused > 0 {
			t.Errorf("%s: %d wrap(s) refused; no corpus module needs one", spec.Name, refused)
		}
		corpusPlanted += planted
	}
	if corpusPlanted == 0 {
		t.Error("nothing planted across the corpus")
	}

	const seeds = 500
	plantedSeeds, refusedSeeds := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		src := progen.Locking(seed)
		planted, refused, err := plantAndRecheck("lock.mc", src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if planted > 0 {
			plantedSeeds++
		}
		if refused > 0 {
			refusedSeeds++
		}
	}
	t.Logf("corpus planted %d; %d/%d seeds planted, %d refused a wrap",
		corpusPlanted, plantedSeeds, seeds, refusedSeeds)
	// The property must not hold vacuously: most seeds plant, and
	// the scoping shapes do make the planter refuse wraps.
	if plantedSeeds < seeds/2 {
		t.Errorf("only %d/%d seeds planted a candidate", plantedSeeds, seeds)
	}
	if refusedSeeds == 0 {
		t.Error("no seed made the planter refuse a wrap")
	}
}
