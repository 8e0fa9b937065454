package core

// Runtime checks of what the three locking columns report, over the
// corpus and random locking programs: the columns' erroring sites nest
// (all-strong ⊆ with-confine ⊆ no-confine), and a program the
// with-confine column verifies never traps on a lock operation when
// the interpreter runs its pristine source.

import (
	"fmt"
	"strings"
	"testing"

	"localalias/internal/drivergen"
	"localalias/internal/interp"
	"localalias/internal/progen"
	"localalias/internal/qual"
	"localalias/internal/source"
	"localalias/internal/types"
)

// lockTrap runs fn of m from a fresh interpreter, with every argument
// 0 and then, if it takes any, 1, and returns the first lock-operation
// trap it hits, or "".
func lockTrap(m *Module, fn string) string {
	params := len(m.Prog.Fun(fn).Params)
	for _, arg := range []int64{0, 1}[:min(params+1, 2)] {
		args := make([]interp.Value, params)
		for i := range args {
			args[i] = arg
		}
		_, err := interp.New(m.TInfo, interp.Options{MaxSteps: 1 << 16}).Call(fn, args...)
		if err != nil && strings.Contains(err.Error(), "of a lock that is") {
			return err.Error()
		}
	}
	return ""
}

// sites returns the erroring sites of rep.
func sites(rep *qual.Report) map[source.Span]bool {
	out := make(map[source.Span]bool, len(rep.Errors))
	for _, e := range rep.Errors {
		out[e.Site] = true
	}
	return out
}

// lines renders the erroring sites of rep as line:column positions.
func lines(m *Module, rep *qual.Report) string {
	var out []string
	for _, e := range rep.Errors {
		p := m.Prog.File.Position(e.Site.Start)
		out = append(out, fmt.Sprintf("%d:%d", p.Line, p.Column))
	}
	return "[" + strings.Join(out, " ") + "]"
}

// nested reports whether every site of inner is a site of outer.
func nested(inner, outer map[source.Span]bool) bool {
	for s := range inner {
		if !outer[s] {
			return false
		}
	}
	return true
}

// A lock taken inside a call in a binder's initializer counts at
// every column, whether the binder is written restrict or inferred
// one: each column reports the self-deadlock that running main traps
// on.
func TestLockingInitializerCallsAreAnalyzed(t *testing.T) {
	const src = `
global l: lock;
fun f(): ref int { spin_lock(&l); return new 1; }
fun g(): ref int { spin_lock(&l); return new 2; }
fun main() { %[1]s p = f(); *p = 2; %[1]s q = g(); *q = 3; }
`
	for _, binder := range []string{"let", "restrict"} {
		prog := fmt.Sprintf(src, binder)
		m := load(t, prog)
		r, err := m.AnalyzeLocking(LockingOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for col, rep := range map[string]*qual.Report{
			"no-confine": r.NoConfine, "with-confine": r.WithConfine, "all-strong": r.AllStrong,
		} {
			if rep.NumErrors() != 1 || m.Prog.File.Position(rep.Errors[0].Site.Start).Line != 4 {
				t.Errorf("%s: %s reports %s, want the spin_lock in g (4:20)", binder, col, lines(m, rep))
			}
		}
		if trap := lockTrap(load(t, prog), "main"); trap == "" {
			t.Errorf("%s: main does not trap", binder)
		}
	}
}

// lockingRuns is the number of progen.Locking seeds the property
// covers.
const lockingRuns = 3000

func TestLockingColumnsNestAndVerifiedProgramsRunClean(t *testing.T) {
	var programs, verified, unnested, trapped, recovered, caught int
	check := func(name, src string, runs func(m *Module) []string) {
		programs++
		m, err := LoadModule(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r, err := m.AnalyzeLocking(LockingOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		none, with, all := sites(r.NoConfine), sites(r.WithConfine), sites(r.AllStrong)
		if !nested(all, with) || !nested(with, none) {
			unnested++
			t.Errorf("%s: erroring sites do not nest: no-confine %s, with-confine %s, all-strong %s",
				name, lines(m, r.NoConfine), lines(m, r.WithConfine), lines(m, r.AllStrong))
		}
		if len(with) < len(none) {
			recovered++
		}
		// Confine inference rewrote m; the interpreter runs the source.
		pristine, _ := LoadModule(name, src)
		for _, fn := range runs(pristine) {
			trap := lockTrap(pristine, fn)
			switch {
			case trap == "":
			case len(with) == 0:
				trapped++
				t.Errorf("%s: with-confine verifies it, but %s traps: %s", name, fn, trap)
			default:
				caught++
			}
		}
		if len(with) == 0 {
			verified++
		}
	}
	// A corpus module runs its roots that take only ints; a locking
	// program runs main.
	roots := func(m *Module) []string {
		var out []string
		for _, f := range m.Prog.Funs {
			sig := m.TInfo.Funs[f.Name]
			if sig == nil || sig.Called {
				continue
			}
			ints := true
			for _, p := range sig.Params {
				ints = ints && p == types.IntType
			}
			if ints {
				out = append(out, f.Name)
			}
		}
		return out
	}
	for _, spec := range drivergen.Corpus() {
		check(spec.Name+".mc", spec.Source(), roots)
	}
	for seed := int64(0); seed < lockingRuns; seed++ {
		check(fmt.Sprintf("locking_%d.mc", seed), progen.Locking(seed),
			func(*Module) []string { return []string{"main"} })
	}
	t.Logf("programs=%d verified=%d recovered=%d caught=%d unnested=%d trapped=%d",
		programs, verified, recovered, caught, unnested, trapped)
	// The property must not hold vacuously: many programs are verified
	// and run, confine inference removes errors from many, and flagged
	// programs do trap.
	if verified < programs/3 || recovered < programs/10 || caught < programs/10 {
		t.Errorf("programs=%d verified=%d recovered=%d caught=%d: the property is near vacuous",
			programs, verified, recovered, caught)
	}
}
