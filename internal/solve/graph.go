// Package solve resolves effect constraint systems.
//
// It provides the two algorithms of the paper:
//
//   - Check: the O(kn) satisfiability test of Section 4. The
//     normal-form constraints are viewed as a directed graph
//     (location sources, effect-variable nodes, and in-degree-2
//     intersection nodes); each disinclusion ρ ∉ ε is tested with the
//     marked depth-first search of Figure 5 (CheckSat).
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

// graph is the shared constraint-graph skeleton built from a
// normalized system. Out-edges are in CSR form: the edges of variable
// v are edges[edgeStart[v]:edgeStart[v+1]], in the order the
// normalized constraints produced them (per-variable edge order is
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
	// leftSeeds/rightSeeds are atoms wired directly into a side.
	leftSeeds  []effects.Atom
	rightSeeds []effects.Atom
}

// newGraph normalizes sys and builds the skeleton. A non-nil scratch
// supplies recycled buffers for every build-time structure (normal
// forms, seed rows, CSR arrays, intersection nodes); the Checker and
// the reference solver pass nil, since they retain the graph beyond
// the scratch's checkout.
//
// sharedEdges materializes the system's shared variable as ordinary
// edges: one from it into the right side of every intersection node.
// The Checker and the reference solver read it that way; the dense
// solver leaves the edges out and tests membership instead.
func newGraph(sys *effects.System, sc *scratch, sharedEdges bool) *graph {
	g := &graph{ls: sys.Locs}
	var norms []effects.Norm
	if sc == nil {
		norms = sys.Normalize()
	} else {
		norms, sc.normWork = sys.NormalizeInto(sc.norms, sc.normWork)
	}
	// Normalize may create fresh variables, so size after.
	g.nvar = sys.NumVars()

	var degree, next []int32
	if sc == nil {
		g.seeds = make([][]effects.Atom, g.nvar)
		degree = make([]int32, g.nvar+1)
	} else {
		g.seeds = takeRows(&sc.seeds, g.nvar)
		degree = takeSlice(&sc.degree, g.nvar+1)
		g.inter = sc.takeInter()
	}

	// CSR in two passes: count each variable's out-degree, prefix-sum
	// into edgeStart, then fill slots in norm order.
	shared := effects.NoVar
	if sharedEdges {
		shared = sys.Shared
	}
	for _, n := range norms {
		if !n.Inter {
			if !n.Left.IsAtom {
				degree[n.Left.V]++
			}
			continue
		}
		if !n.Left.IsAtom {
			degree[n.Left.V]++
		}
		if !n.Right.IsAtom {
			degree[n.Right.V]++
		}
		if shared != effects.NoVar {
			degree[shared]++
		}
	}
	if sc == nil {
		g.edgeStart = make([]int32, g.nvar+1)
	} else {
		g.edgeStart = takeSlice(&sc.edgeStart, g.nvar+1)
	}
	var total int32
	for v := 0; v < g.nvar; v++ {
		g.edgeStart[v] = total
		total += degree[v]
	}
	g.edgeStart[g.nvar] = total
	if sc == nil {
		g.edges = make([]target, total)
		next = make([]int32, g.nvar)
	} else {
		g.edges = takeSlice(&sc.edges, int(total))
		next = takeSlice(&sc.next, g.nvar)
	}
	copy(next, g.edgeStart[:g.nvar])
	addEdge := func(from effects.Var, t target) {
		g.edges[next[from]] = t
		next[from]++
	}
	for _, n := range norms {
		if !n.Inter {
			if n.Left.IsAtom {
				g.seeds[n.V] = append(g.seeds[n.V], n.Left.A)
			} else {
				addEdge(n.Left.V, target{kind: toVar, idx: int32(n.V)})
			}
			continue
		}
		i := int32(len(g.inter))
		in := g.addInode(n.V)
		if n.Left.IsAtom {
			in.leftSeeds = append(in.leftSeeds, n.Left.A)
		} else {
			addEdge(n.Left.V, target{kind: toLeft, idx: i})
		}
		if n.Right.IsAtom {
			in.rightSeeds = append(in.rightSeeds, n.Right.A)
		} else {
			addEdge(n.Right.V, target{kind: toRight, idx: i})
		}
		if shared != effects.NoVar {
			addEdge(shared, target{kind: toRight, idx: i})
		}
	}
	if sc != nil {
		// Capture append growth so the scratch keeps the high-water
		// backing for the next solve.
		sc.norms = norms
		sc.inter = g.inter
	}
	return g
}

// addInode appends an intersection node, reusing a previously carved
// slot — and its seed rows' capacity — when the backing allows.
func (g *graph) addInode(out effects.Var) *inode {
	if len(g.inter) < cap(g.inter) {
		g.inter = g.inter[:len(g.inter)+1]
		in := &g.inter[len(g.inter)-1]
		in.Out = out
		in.leftSeeds = in.leftSeeds[:0]
		in.rightSeeds = in.rightSeeds[:0]
		return in
	}
	g.inter = append(g.inter, inode{Out: out})
	return &g.inter[len(g.inter)-1]
}

// takeInter hands out the recycled inode backing, truncated; addInode
// re-extends it in place so each node's seed rows keep their caps.
func (sc *scratch) takeInter() []inode {
	return sc.inter[:0]
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
