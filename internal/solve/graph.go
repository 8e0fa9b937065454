// Package solve resolves effect constraint systems.
//
// It provides the two algorithms of the paper:
//
//   - Check: the O(kn) satisfiability test of Section 4. The
//     inclusion constraints, which inference builds in Figure 4b's
//     normal form, are viewed as a directed graph (location sources,
//     effect-variable nodes, and in-degree-2 intersection nodes);
//     each disinclusion ρ ∉ ε is tested with the marked depth-first
//     search of Figure 5 (CheckSat).
//
//   - Solve: the least-solution worklist algorithm with conditional
//     constraints used by restrict inference (Section 5, O(n²)) and
//     confine inference (Section 6). Atoms are propagated to a
//     fixpoint; when a conditional's trigger becomes true its actions
//     run (unifying locations, adding inclusions or atoms), and
//     propagation resumes until no conditional fires and no atom
//     moves.
//
// Both algorithms run over dense integer indices: effect variables
// and abstract locations are already dense int32s, atoms are interned
// into dense IDs (effects.Interner), solution and gate sets are
// bitsets over those IDs, and the propagation graph's out-edges are
// stored in CSR (compressed-sparse-row) adjacency built once per
// Solve/NewChecker. See docs/ALGORITHMS.md, "Dense solver
// representation".
package solve

import (
	"localalias/internal/effects"
	"localalias/internal/locs"
)

// target is one out-edge of an effect-variable node.
type target struct {
	// kind selects the edge destination.
	kind targetKind
	// idx is a variable index (toVar) or an intersection-node index
	// (toLeft/toRight).
	idx int32
}

type targetKind uint8

const (
	toVar targetKind = iota
	toLeft
	toRight
)

// graph is the shared constraint-graph skeleton built from a system's
// inclusion lists. Out-edges are in CSR form: the edges of variable v
// are edges[edgeStart[v]:edgeStart[v+1]] (per-variable edge order is
// what keeps propagation — and hence conditional firing order —
// deterministic).
type graph struct {
	ls *locs.Store

	nvar      int
	edgeStart []int32
	edges     []target
	// seeds[v] lists atoms directly included in v.
	seeds [][]effects.Atom
	// inter[i] is the i-th intersection node.
	inter []inode
}

// inode is an intersection node: atoms arriving on the left are
// forwarded to Out when their location has been seen on the right.
// (On the paper's plain location sets this is exactly the in-degree-2
// Count(I)==2 behaviour of Figure 5.)
type inode struct {
	Out effects.Var
}

// newGraph builds the skeleton from sys's three inclusion lists in
// buffers recycled through sc. The layout is the propagation schedule,
// which the solver's work counters observe: a variable's edges list
// its intersections, then its variable inclusions, each newest first;
// intersection node i is the i-th newest intersection; and each seed
// row lists its atoms newest first.
//
// sharedEdges materializes the system's shared variable as ordinary
// edges: one from it into the right side of every intersection node.
// The Checker and the reference solver read it that way; the dense
// solver leaves the edges out and tests membership instead.
func newGraph(sys *effects.System, sc *scratch, sharedEdges bool) *graph {
	inters, vincls, aincls := sys.InterIncls, sys.VarIncls, sys.AtomIncls
	g := &graph{ls: sys.Locs, nvar: sys.NumVars()}
	g.seeds = takeRows(&sc.seeds, g.nvar)
	g.inter = takeSlice(&sc.inter, len(inters))

	// CSR in two passes: count each variable's out-degree, prefix-sum
	// into edgeStart, then fill slots in layout order.
	shared := effects.NoVar
	if sharedEdges {
		shared = sys.Shared
	}
	degree := takeSlice(&sc.degree, g.nvar)
	for _, ic := range inters {
		degree[ic.L]++
		degree[ic.R]++
		if shared != effects.NoVar {
			degree[shared]++
		}
	}
	for _, vi := range vincls {
		degree[vi.From]++
	}
	g.edgeStart = takeSlice(&sc.edgeStart, g.nvar+1)
	var total int32
	for v := 0; v < g.nvar; v++ {
		g.edgeStart[v] = total
		total += degree[v]
	}
	g.edgeStart[g.nvar] = total
	g.edges = takeSlice(&sc.edges, int(total))
	next := takeSlice(&sc.next, g.nvar)
	copy(next, g.edgeStart[:g.nvar])
	addEdge := func(from effects.Var, t target) {
		g.edges[next[from]] = t
		next[from]++
	}
	for i := range g.inter {
		ic := inters[len(inters)-1-i]
		g.inter[i].Out = ic.V
		addEdge(ic.L, target{kind: toLeft, idx: int32(i)})
		addEdge(ic.R, target{kind: toRight, idx: int32(i)})
		if shared != effects.NoVar {
			addEdge(shared, target{kind: toRight, idx: int32(i)})
		}
	}
	for i := len(vincls) - 1; i >= 0; i-- {
		addEdge(vincls[i].From, target{kind: toVar, idx: int32(vincls[i].To)})
	}
	for i := len(aincls) - 1; i >= 0; i-- {
		ai := aincls[i]
		g.seeds[ai.V] = append(g.seeds[ai.V], ai.A)
	}
	return g
}

// outEdges returns v's static out-edges (CSR row). Edges added by
// conditional constraints at solve time live in the solver's overlay,
// not here: the skeleton is immutable once built, so a Checker and a
// solver can share it.
func (g *graph) outEdges(v int32) []target {
	return g.edges[g.edgeStart[v]:g.edgeStart[v+1]]
}

// Size returns a node+edge count used by complexity benchmarks.
func (g *graph) Size() int {
	n := g.nvar + len(g.inter) + len(g.edges)
	for _, v := range g.seeds {
		n += len(v)
	}
	return n
}
