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
// check, then checks the planted program afresh: the fresh check must
// report no errors and agree with the extended Info on every entry —
// the clones' copied entries and the originals' alike. Symbols are
// compared by their defining node, types structurally and by rendering.
func plantAndRecheck(name, src string, general bool) (planted, refused int, err error) {
	var diags source.Diagnostics
	prog := parser.Parse(name, src, &diags)
	info := types.Check(prog, &diags)
	if diags.HasErrors() {
		return 0, 0, fmt.Errorf("input fails checking: %s", diags.String())
	}
	planted, refused = confine.Plant(prog, info, general)

	var again source.Diagnostics
	fresh := types.Check(prog, &again)
	if again.HasErrors() {
		return planted, refused, fmt.Errorf("planted program fails checking: %s\n%s", again.String(), ast.String(prog))
	}
	if len(fresh.ExprTypes) != len(info.ExprTypes) || len(fresh.IsPlace) != len(info.IsPlace) || len(fresh.Uses) != len(info.Uses) {
		return planted, refused, fmt.Errorf("entry counts differ: types %d/%d, places %d/%d, uses %d/%d",
			len(fresh.ExprTypes), len(info.ExprTypes), len(fresh.IsPlace), len(info.IsPlace), len(fresh.Uses), len(info.Uses))
	}
	for e, want := range fresh.ExprTypes {
		got := info.ExprTypes[e]
		if got == nil || !types.Equal(got, want) || got.String() != want.String() {
			return planted, refused, fmt.Errorf("%s at %v: type %v, a fresh check says %v", ast.ExprString(e), e.Span(), got, want)
		}
		if info.IsPlace[e] != fresh.IsPlace[e] {
			return planted, refused, fmt.Errorf("%s at %v: place flag %v, a fresh check says %v", ast.ExprString(e), e.Span(), info.IsPlace[e], fresh.IsPlace[e])
		}
	}
	for v, want := range fresh.Uses {
		if got := info.Uses[v]; got == nil || got.Def != want.Def {
			return planted, refused, fmt.Errorf("%s at %v resolves to a different symbol than a fresh check finds", v.Name, v.Sp)
		}
	}
	return planted, refused, nil
}

func TestPlantedEntriesMatchFreshCheck(t *testing.T) {
	for _, general := range []bool{false, true} {
		corpusPlanted := 0
		for _, spec := range drivergen.Corpus() {
			planted, refused, err := plantAndRecheck(spec.Name+".mc", spec.Source(), general)
			if err != nil {
				t.Fatalf("%s (general=%v): %v", spec.Name, general, err)
			}
			if refused > 0 {
				t.Errorf("%s (general=%v): %d wrap(s) refused; no corpus module needs one", spec.Name, general, refused)
			}
			corpusPlanted += planted
		}
		if corpusPlanted == 0 {
			t.Errorf("general=%v: nothing planted across the corpus", general)
		}

		const seeds = 500
		plantedSeeds, refusedSeeds := 0, 0
		for seed := int64(0); seed < seeds; seed++ {
			src := progen.Locking(seed)
			planted, refused, err := plantAndRecheck("lock.mc", src, general)
			if err != nil {
				t.Fatalf("seed %d (general=%v): %v\n%s", seed, general, err, src)
			}
			if planted > 0 {
				plantedSeeds++
			}
			if refused > 0 {
				refusedSeeds++
			}
		}
		t.Logf("general=%v: corpus planted %d; %d/%d seeds planted, %d refused a wrap",
			general, corpusPlanted, plantedSeeds, seeds, refusedSeeds)
		// The property must not hold vacuously: most seeds plant, and
		// the scoping shapes do make the planter refuse wraps.
		if plantedSeeds < seeds/2 {
			t.Errorf("general=%v: only %d/%d seeds planted a candidate", general, plantedSeeds, seeds)
		}
		if refusedSeeds == 0 {
			t.Errorf("general=%v: no seed made the planter refuse a wrap", general)
		}
	}
}
