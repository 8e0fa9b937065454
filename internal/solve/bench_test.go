package solve

import (
	"fmt"
	"testing"

	"localalias/internal/effects"
	"localalias/internal/locs"
	"localalias/internal/source"
)

// buildLayered constructs a layered constraint graph: width sources
// feeding depth layers of variables with cross edges and a sprinkle
// of intersections — a stand-in for the effect graphs real modules
// produce.
func buildLayered(width, depth int) (*effects.System, []effects.Var, []locs.Loc) {
	ls := locs.NewStore()
	sys := effects.NewSystem(ls)
	var rhos []locs.Loc
	for i := 0; i < width; i++ {
		rhos = append(rhos, ls.Fresh(fmt.Sprintf("r%d", i)))
	}
	prev := make([]effects.Var, width)
	for i := 0; i < width; i++ {
		prev[i] = sys.Fresh("l0")
		sys.AddAtom(effects.Atom{Kind: effects.Kind(i % 4), Loc: rhos[i]}, prev[i])
	}
	var last []effects.Var
	for d := 1; d < depth; d++ {
		cur := make([]effects.Var, width)
		for i := 0; i < width; i++ {
			cur[i] = sys.Fresh(fmt.Sprintf("l%d", d))
			sys.AddVarIncl(prev[i], cur[i])
			sys.AddVarIncl(prev[(i+1)%width], cur[i])
			if i%5 == 0 {
				sys.AddInter(prev[i], prev[(i+2)%width], cur[i])
			}
		}
		prev = cur
		last = cur
	}
	return sys, last, rhos
}

// BenchmarkCheckSatQuery measures the per-query cost of the Figure 5
// marked search (the O(n) factor of O(kn)).
func BenchmarkCheckSatQuery(b *testing.B) {
	for _, size := range []int{10, 40, 160} {
		sys, last, rhos := buildLayered(size, size)
		b.Run(fmt.Sprintf("width=%d", size), func(b *testing.B) {
			c := NewChecker(sys)
			b.ReportMetric(float64(c.GraphSize()), "graph-nodes+edges")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ni := effects.NotIn{
					Loc:  rhos[i%len(rhos)],
					V:    last[i%len(last)],
					Site: source.NoSpan,
				}
				c.Sat(ni)
			}
		})
	}
}

// BenchmarkSolveLayered measures full least-solution propagation.
func BenchmarkSolveLayered(b *testing.B) {
	for _, size := range []int{10, 40} {
		b.Run(fmt.Sprintf("width=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, _, _ := buildLayered(size, size)
				b.StartTimer()
				Solve(sys)
			}
		})
	}
}

// BenchmarkSolveWithConditionals measures the conditional-constraint
// worklist: a cascade of unifications each enabling the next.
func BenchmarkSolveWithConditionals(b *testing.B) {
	for _, n := range []int{50, 200} {
		b.Run(fmt.Sprintf("cascade=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ls := locs.NewStore()
				sys := effects.NewSystem(ls)
				e := sys.Fresh("e")
				rhos := make([]locs.Loc, n+1)
				for j := range rhos {
					rhos[j] = ls.Fresh("r")
				}
				sys.AddAtom(effects.Atom{Kind: effects.Read, Loc: rhos[0]}, e)
				// rho_j ∈ e ⇒ unify(rho_j, rho_j+1): each firing
				// enables the next.
				for j := 0; j < n; j++ {
					sys.AddCond(&effects.Cond{
						Trigger: effects.LocIn{Loc: rhos[j], V: e},
						Actions: []effects.Action{effects.ActUnify{A: rhos[j], B: rhos[j+1]}},
					})
				}
				b.StartTimer()
				r := Solve(sys)
				if len(r.Fired) != n {
					b.Fatalf("fired %d, want %d", len(r.Fired), n)
				}
			}
		})
	}
}
