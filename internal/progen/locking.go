package progen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Locking produces one random deterministic locking program for the
// seed: scalar and array locks, literal indices, branches on
// constants, helper calls, balanced and unbalanced sequences, and the
// scoping shapes confine planting has to respect — lets between
// paired lock calls (sometimes used after the pair), lock arguments on
// names bound in inner blocks, and inner lets shadowing outer ones.
// The program declares "fun main()".
func Locking(seed int64) string {
	g := &lockGen{r: rand.New(rand.NewSource(seed))}
	g.line("global big0: lock;")
	g.line("global big1: lock;")
	g.line("global tbl: lock[4];")
	g.line("")
	nHelpers := g.r.Intn(3)
	for i := 0; i < nHelpers; i++ {
		g.line("fun h%d() {", i)
		g.block(1, 1+g.r.Intn(2), nil)
		g.line("}")
		g.helpers++
	}
	g.line("fun main() {")
	g.block(2, 2+g.r.Intn(4), nil)
	g.line("}")
	return g.b.String()
}

// lockNames are the names lock pointers are bound to. The pool is
// small on purpose, so sibling blocks bind the same name and inner
// blocks shadow outer bindings.
var lockNames = []string{"p", "q"}

type lockGen struct {
	r       *rand.Rand
	b       strings.Builder
	indent  int
	helpers int
	ints    int
	// scopes holds, per open block, the lock pointer names it binds.
	scopes [][]string
}

func (g *lockGen) line(format string, args ...any) {
	g.b.WriteString(strings.Repeat("    ", g.indent))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// block emits budget statements in a new scope, after the prologue
// (which runs inside the scope).
func (g *lockGen) block(depth, budget int, prologue func()) {
	g.indent++
	g.scopes = append(g.scopes, nil)
	if prologue != nil {
		prologue()
	}
	for i := 0; i < budget; i++ {
		g.stmt(depth)
	}
	g.scopes = g.scopes[:len(g.scopes)-1]
	g.indent--
}

// globalLock picks a random lock place expression over the globals.
func (g *lockGen) globalLock() string {
	switch g.r.Intn(3) {
	case 0:
		return "&big0"
	case 1:
		return "&big1"
	default:
		return fmt.Sprintf("&tbl[%d]", g.r.Intn(4))
	}
}

// lockExpr picks a lock pointer: a global's address or a visible
// bound name.
func (g *lockGen) lockExpr() string {
	var visible []string
	for _, sc := range g.scopes {
		visible = append(visible, sc...)
	}
	if len(visible) > 0 && g.r.Intn(3) == 0 {
		return visible[g.r.Intn(len(visible))]
	}
	return g.globalLock()
}

// bindLock binds a pool name the current block does not bind yet to a
// global lock's address, returning the name ("" when both are taken).
func (g *lockGen) bindLock() string {
	cur := &g.scopes[len(g.scopes)-1]
	for _, i := range g.r.Perm(len(lockNames)) {
		name := lockNames[i]
		taken := false
		for _, n := range *cur {
			taken = taken || n == name
		}
		if !taken {
			g.line("let %s = %s;", name, g.globalLock())
			*cur = append(*cur, name)
			return name
		}
	}
	return ""
}

func (g *lockGen) stmt(depth int) {
	switch g.r.Intn(9) {
	case 0, 1: // balanced pair (the common case)
		l := g.lockExpr()
		g.line("spin_lock(%s);", l)
		if g.r.Intn(2) == 0 {
			g.line("work();")
		}
		g.line("spin_unlock(%s);", l)
	case 2: // lone op (often a bug)
		op := "spin_lock"
		if g.r.Intn(2) == 0 {
			op = "spin_unlock"
		}
		g.line("%s(%s);", op, g.lockExpr())
	case 3: // branch on a constant
		if depth > 0 {
			g.line("if (%d) {", g.r.Intn(2))
			g.block(depth-1, 1+g.r.Intn(2), nil)
			g.line("} else {")
			g.block(depth-1, 1+g.r.Intn(2), nil)
			g.line("}")
		}
	case 4: // helper call
		if g.helpers > 0 {
			g.line("h%d();", g.r.Intn(g.helpers))
		}
	case 5: // a let between a pair, sometimes used after it
		l := g.lockExpr()
		g.ints++
		g.line("spin_lock(%s);", l)
		g.line("let t%d = %d;", g.ints, g.r.Intn(100))
		g.line("spin_unlock(%s);", l)
		if g.r.Intn(2) == 0 {
			g.line("print(t%d);", g.ints)
		}
	case 6: // bind a lock pointer in this block (shadowing any outer one)
		g.bindLock()
	case 7: // a branch whose body locks through a name bound inside it
		if depth > 0 {
			g.line("if (%d) {", g.r.Intn(2))
			g.block(depth-1, g.r.Intn(2), func() {
				if name := g.bindLock(); name != "" {
					op := "spin_lock"
					if g.r.Intn(2) == 0 {
						op = "spin_unlock"
					}
					g.line("%s(%s);", op, name)
				}
			})
			g.line("}")
		}
	default:
		g.line("work();")
	}
}
