package solve

import (
	"fmt"

	"localalias/internal/bitset"
	"localalias/internal/effects"
	"localalias/internal/source"
)

// Violation reports one failed check (a disinclusion ρ ∉ ε, a
// kind-absence check, or a read/write pair check).
type Violation struct {
	Site   source.Span
	What   string // the side condition that failed, for diagnostics
	Detail string // mechanical detail (which location/atoms)
}

func (v Violation) String() string {
	if v.Detail == "" {
		return v.What
	}
	return v.What + " (" + v.Detail + ")"
}

// Checker runs Figure 5's CHECK-SAT over a constraint graph. It is
// reusable across queries: the marks are epoch-stamped so each query
// costs O(nodes reached), giving the paper's O(kn) total for k
// checks.
type Checker struct {
	g *graph

	epoch    int
	varMark  []int // epoch when the var node was reached
	leftMark []int // epoch when the inode's left side was reached
	rightMK  []int // epoch when the inode's right side was reached

	reverseAdj // built on demand for the backward search
}

// NewChecker builds the constraint graph for sys and returns a
// Checker. Conditional constraints are not interpreted here — checking
// per Section 4 applies to fully annotated programs; use Solve for
// inference. The graph lives as long as the Checker, so its buffers
// come from a scratch of its own rather than the solver's pool.
func NewChecker(sys *effects.System) *Checker {
	g := newGraph(sys, new(scratch), true)
	return &Checker{
		g:        g,
		varMark:  make([]int, g.nvar),
		leftMark: make([]int, len(g.inter)),
		rightMK:  make([]int, len(g.inter)),
	}
}

// GraphSize returns the node+edge count (for benchmarks).
func (c *Checker) GraphSize() int { return c.g.Size() }

// Check tests every disinclusion of the system, returning the
// violations in generation order.
func Check(sys *effects.System) []Violation {
	c := NewChecker(sys)
	var out []Violation
	for _, ni := range sys.NotIns {
		if !c.Sat(ni) {
			out = append(out, Violation{
				Site:   ni.Site,
				What:   ni.What.String(),
				Detail: fmt.Sprintf("ρ%d (%s) reaches %s", ni.Loc, sys.Locs.Name(ni.Loc), sys.VarName(ni.V)),
			})
		}
	}
	return out
}

// Sat reports whether the single disinclusion ni holds in the least
// solution, i.e. whether ni.Loc does NOT reach ni.V. This is the
// CHECK-SAT algorithm of Figure 5: a marked search from the location,
// where an intersection node forwards only once both of its sides
// have been reached (Count(I) == 2 in the paper's formulation).
func (c *Checker) Sat(ni effects.NotIn) bool {
	c.epoch++
	g := c.g
	rho := g.ls.Find(ni.Loc)
	goal := ni.V

	var work []int32 // variable node worklist
	pushVar := func(v effects.Var) {
		if c.varMark[v] != c.epoch {
			c.varMark[v] = c.epoch
			work = append(work, int32(v))
		}
	}
	// reachInode marks one side of an intersection node; when both
	// sides are marked the node's output becomes reachable.
	reachInode := func(i int32, left bool) {
		if left {
			if c.leftMark[i] == c.epoch {
				return
			}
			c.leftMark[i] = c.epoch
		} else {
			if c.rightMK[i] == c.epoch {
				return
			}
			c.rightMK[i] = c.epoch
		}
		if c.leftMark[i] == c.epoch && c.rightMK[i] == c.epoch {
			pushVar(g.inter[i].Out)
		}
	}

	// Seed: every constraint {a} ⊆ ε with loc(a) = ρ is an initial
	// reach.
	for v := 0; v < g.nvar; v++ {
		for _, a := range g.seeds[v] {
			if g.ls.Find(a.Loc) == rho {
				pushVar(effects.Var(v))
				break
			}
		}
	}

	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		if effects.Var(v) == goal {
			return false // unsatisfiable: ρ reaches ε
		}
		for _, t := range g.outEdges(v) {
			switch t.kind {
			case toVar:
				pushVar(effects.Var(t.idx))
			case toLeft:
				reachInode(t.idx, true)
			case toRight:
				reachInode(t.idx, false)
			}
		}
	}
	return true
}

// ReachableLocs returns the set of source locations (canonical) that
// can reach v, over-approximated by a reverse search that passes
// through intersection nodes unconditionally. This is the backward
// search of Section 6.2: because the region of the graph behind a
// confine's effect variable is typically small, prefiltering with
// this set and then confirming each candidate with Sat is faster in
// practice than computing full forward reachability for every
// location.
func (c *Checker) ReachableLocs(v effects.Var) *bitset.Set {
	g := c.g
	// Build the reverse adjacency lazily once.
	if c.revEdges == nil {
		c.buildReverse()
	}
	var seen, iseen, out bitset.Set
	var stack []int32
	seen.Add(int(v))
	stack = append(stack, int32(v))
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.seeds[n] {
			out.Add(int(g.ls.Find(a.Loc)))
		}
		for _, p := range c.revVarEdges(n) {
			if seen.Add(int(p)) {
				stack = append(stack, p)
			}
		}
		for _, i := range c.revInode[n] {
			if !iseen.Add(int(i)) {
				continue
			}
			for _, p := range c.revIntoInode[i] {
				if seen.Add(int(p)) {
					stack = append(stack, p)
				}
			}
		}
	}
	return &out
}

// SatBackward is Sat with the Section 6.2 prefilter: if the location
// cannot even reach v in the unconditional reverse approximation, the
// constraint is satisfiable without a forward search.
func (c *Checker) SatBackward(ni effects.NotIn) bool {
	if !c.ReachableLocs(ni.V).Has(int(c.g.ls.Find(ni.Loc))) {
		return true
	}
	return c.Sat(ni)
}

// reverse adjacency (built on demand):
//
//	revStart/revEdges   CSR: variables with an edge into v
//	revInode[v]       = inodes whose output feeds v
//	revIntoInode[i]   = variables feeding either side of inode i
type reverseAdj struct {
	revStart     []int32
	revEdges     []int32
	revInode     [][]int32
	revIntoInode [][]int32
}

func (c *Checker) revVarEdges(v int32) []int32 {
	return c.revEdges[c.revStart[v]:c.revStart[v+1]]
}

func (c *Checker) buildReverse() {
	g := c.g
	// Reverse var→var edges in CSR form, by counting then filling.
	degree := make([]int32, g.nvar+1)
	for _, t := range g.edges {
		if t.kind == toVar {
			degree[t.idx]++
		}
	}
	c.revStart = make([]int32, g.nvar+1)
	var total int32
	for v := 0; v < g.nvar; v++ {
		c.revStart[v] = total
		total += degree[v]
	}
	c.revStart[g.nvar] = total
	c.revEdges = make([]int32, total)
	next := make([]int32, g.nvar)
	copy(next, c.revStart[:g.nvar])

	c.revInode = make([][]int32, g.nvar)
	c.revIntoInode = make([][]int32, len(g.inter))
	for v := int32(0); v < int32(g.nvar); v++ {
		for _, t := range g.outEdges(v) {
			switch t.kind {
			case toVar:
				c.revEdges[next[t.idx]] = v
				next[t.idx]++
			case toLeft, toRight:
				c.revIntoInode[t.idx] = append(c.revIntoInode[t.idx], v)
			}
		}
	}
	for i := range g.inter {
		out := g.inter[i].Out
		c.revInode[out] = append(c.revInode[out], int32(i))
	}
}
