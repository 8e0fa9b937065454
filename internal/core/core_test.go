package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"localalias/internal/ast"
	"localalias/internal/confine"
	"localalias/internal/qual"
	"localalias/internal/solve"
)

func load(t *testing.T, src string) *Module {
	t.Helper()
	m, err := LoadModule("test.mc", src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return m
}

func locking(t *testing.T, src string) *LockingResult {
	t.Helper()
	m := load(t, src)
	r, err := m.AnalyzeLocking(LockingOptions{})
	if err != nil {
		t.Fatalf("locking: %v", err)
	}
	return r
}

// The canonical Section 7 pattern: lock/unlock on an array element,
// expression form, inside one function.
const arrayPairSrc = `
global locks: lock[16];

fun handle(i: int) {
    spin_lock(&locks[i]);
    work();
    spin_unlock(&locks[i]);
}
`

func TestLockingArrayPair(t *testing.T) {
	r := locking(t, arrayPairSrc)
	if r.NoConfine.NumErrors() == 0 {
		t.Error("baseline must report weak-update errors on array locks")
	}
	if r.AllStrong.NumErrors() != 0 {
		t.Errorf("all-strong must be clean, got %d", r.AllStrong.NumErrors())
	}
	if r.WithConfine.NumErrors() != 0 {
		t.Errorf("confine inference must recover all strong updates, got %d errors",
			r.WithConfine.NumErrors())
	}
	if len(r.Confine.Kept) == 0 {
		t.Error("a confine must have been inserted")
	}
	// The transformed program must show the inferred confine.
	printed := ast.String(r.Module.Prog)
	if !strings.Contains(printed, "confine &locks[i]") {
		t.Errorf("printed program lacks the confine:\n%s", printed)
	}
}

func TestLockingRepeatedPairs(t *testing.T) {
	// K pairs in sequence: baseline accrues errors at every op after
	// the first; confine removes all.
	src := `
global locks: lock[16];

fun handle(i: int) {
    spin_lock(&locks[i]);
    spin_unlock(&locks[i]);
    spin_lock(&locks[i]);
    spin_unlock(&locks[i]);
    spin_lock(&locks[i]);
    spin_unlock(&locks[i]);
}
`
	r := locking(t, src)
	if got := r.NoConfine.NumErrors(); got != 5 {
		t.Errorf("baseline: want 5 errors (2K-1 for K=3), got %d", got)
	}
	if r.WithConfine.NumErrors() != 0 {
		t.Errorf("confine: want 0, got %d", r.WithConfine.NumErrors())
	}
}

func TestLockingScalarGlobalClean(t *testing.T) {
	// A single global lock is linear: strong updates without any
	// confine; all three modes agree on zero.
	src := `
global big: lock;

fun handle() {
    spin_lock(&big);
    work();
    spin_unlock(&big);
    spin_lock(&big);
    spin_unlock(&big);
}
`
	r := locking(t, src)
	if r.NoConfine.NumErrors() != 0 || r.WithConfine.NumErrors() != 0 || r.AllStrong.NumErrors() != 0 {
		t.Errorf("scalar global lock must be clean in all modes: %d/%d/%d",
			r.NoConfine.NumErrors(), r.WithConfine.NumErrors(), r.AllStrong.NumErrors())
	}
}

func TestLockingRealBugAllModes(t *testing.T) {
	// Double acquire on a scalar lock: a real bug that strong updates
	// cannot excuse — the same error must appear in all three modes.
	src := `
global big: lock;

fun handle() {
    spin_lock(&big);
    spin_lock(&big);
    spin_unlock(&big);
}
`
	r := locking(t, src)
	if r.NoConfine.NumErrors() != 1 || r.WithConfine.NumErrors() != 1 || r.AllStrong.NumErrors() != 1 {
		t.Errorf("double acquire must show once in every mode: %d/%d/%d",
			r.NoConfine.NumErrors(), r.WithConfine.NumErrors(), r.AllStrong.NumErrors())
	}
}

func TestLockingUnlockWithoutLock(t *testing.T) {
	src := `
global big: lock;

fun handle() {
    spin_unlock(&big);
}
`
	r := locking(t, src)
	if r.NoConfine.NumErrors() != 1 || r.AllStrong.NumErrors() != 1 {
		t.Errorf("unlock-without-lock: %d/%d", r.NoConfine.NumErrors(), r.AllStrong.NumErrors())
	}
}

func TestLockingLetBoundPointer(t *testing.T) {
	// The lock is held through a local pointer binding: recovered by
	// let-or-restrict inference (Section 5), not by confine.
	src := `
global locks: lock[8];

fun handle(i: int) {
    let l = &locks[i];
    spin_lock(l);
    work();
    spin_unlock(l);
}
`
	r := locking(t, src)
	if r.NoConfine.NumErrors() == 0 {
		t.Error("baseline must report weak-update errors")
	}
	if r.WithConfine.NumErrors() != 0 {
		t.Errorf("let-or-restrict inference must recover the binding, got %d:\n%s",
			r.WithConfine.NumErrors(), ast.String(r.Module.Prog))
	}
	// The binding must be marked restrict in the rewritten program.
	marked := false
	ast.Inspect(r.Module.Prog, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeclStmt); ok && d.Name == "l" && d.Restrict {
			marked = true
		}
		return true
	})
	if !marked {
		t.Errorf("let l must be marked restrict:\n%s", ast.String(r.Module.Prog))
	}
}

func TestLockingHelperFunction(t *testing.T) {
	// The Figure 1 pattern: the lock flows through a helper's
	// parameter. Confine at the call site plus parameter restrict
	// inference recovers strong updates.
	src := `
global locks: lock[8];

fun entry(i: int) {
    do_with_lock(&locks[i]);
    do_with_lock(&locks[i]);
}

fun do_with_lock(l: ref lock) {
    spin_lock(l);
    work();
    spin_unlock(l);
}
`
	r := locking(t, src)
	if r.NoConfine.NumErrors() == 0 {
		t.Error("baseline must report weak-update errors")
	}
	if r.WithConfine.NumErrors() != 0 {
		t.Errorf("confine + param restrict must clean the helper pattern, got %d:\n%s",
			r.WithConfine.NumErrors(), ast.String(r.Module.Prog))
	}
}

func TestLockingConfineFailsOnIndexWrite(t *testing.T) {
	// The index is re-written between the lock and unlock: the
	// confined expression is not referentially transparent, so the
	// confine must be rejected and the errors remain.
	src := `
global locks: lock[8];
global idx: int;

fun handle() {
    spin_lock(&locks[idx]);
    idx = idx + 1;
    spin_unlock(&locks[idx]);
}
`
	r := locking(t, src)
	if len(r.Confine.Kept) != 0 {
		t.Fatalf("confine over a mutated index must fail:\n%s", ast.String(r.Module.Prog))
	}
	if r.WithConfine.NumErrors() != r.NoConfine.NumErrors() {
		t.Errorf("rejected confine must leave errors unchanged: %d vs %d",
			r.WithConfine.NumErrors(), r.NoConfine.NumErrors())
	}
	// The failed candidate must have been spliced back out.
	printed := ast.String(r.Module.Prog)
	if strings.Contains(printed, "confine") {
		t.Errorf("failed confine must be removed:\n%s", printed)
	}
}

func TestLockingConfineFailsOnOuterAccess(t *testing.T) {
	// Another element of the array is touched inside the would-be
	// scope: ρ is accessed, the confine must fail.
	src := `
global locks: lock[8];

fun handle(i: int, j: int) {
    spin_lock(&locks[i]);
    spin_unlock(&locks[j]);
    spin_lock(&locks[i]);
    spin_unlock(&locks[i]);
}
`
	r := locking(t, src)
	// &locks[i] wraps [0..3]: inside, &locks[j] writes ρ → fail.
	// (&locks[j] has only one occurrence so it is never a candidate.)
	if len(r.Confine.Kept) != 0 {
		t.Errorf("confine must fail when another element is accessed in scope:\n%s",
			ast.String(r.Module.Prog))
	}
}

func TestLockingStructFieldLock(t *testing.T) {
	// Per-device struct lock accessed through a pointer parameter:
	// devices alias through the callers, confine recovers strong
	// updates on d->l.
	src := `
struct dev {
    l: lock;
    n: int;
}
global d1: dev;
global d2: dev;

fun touch(d: ref dev) {
    spin_lock(&d->l);
    d->n = d->n + 1;
    spin_unlock(&d->l);
}

fun entry() {
    touch(&d1);
    touch(&d2);
}
`
	m := load(t, src)
	// &d1/&d2 are AddrExpr of globals — supported places.
	r, err := m.AnalyzeLocking(LockingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NoConfine.NumErrors() == 0 {
		t.Error("two devices unify through the parameter: baseline must err")
	}
	if r.WithConfine.NumErrors() != 0 {
		t.Errorf("confine must clean the struct-lock pattern, got %d:\n%s",
			r.WithConfine.NumErrors(), ast.String(m.Prog))
	}
}

func TestLockingBranchingBalanced(t *testing.T) {
	// Lock around a branch; both paths balanced.
	src := `
global locks: lock[4];

fun handle(i: int, c: int) {
    spin_lock(&locks[i]);
    if (c > 0) {
        work();
    } else {
        print(c);
    }
    spin_unlock(&locks[i]);
}
`
	r := locking(t, src)
	if r.WithConfine.NumErrors() != 0 {
		t.Errorf("balanced branch: want 0 confine-mode errors, got %d", r.WithConfine.NumErrors())
	}
}

func TestLockingConditionalLockRealError(t *testing.T) {
	// Lock only on one branch, unconditional unlock: a real error
	// that persists even all-strong.
	src := `
global big: lock;

fun handle(c: int) {
    if (c > 0) {
        spin_lock(&big);
    }
    spin_unlock(&big);
}
`
	r := locking(t, src)
	if r.AllStrong.NumErrors() != 1 {
		t.Errorf("conditional lock: all-strong must still err once, got %d", r.AllStrong.NumErrors())
	}
}

func TestLockingAdjacentConfinesMerge(t *testing.T) {
	// Two disjoint pair-ranges of the same expression become adjacent
	// confines and must merge into one.
	src := `
global locks: lock[4];

fun handle(i: int) {
    spin_lock(&locks[i]);
    spin_unlock(&locks[i]);
    work();
    spin_lock(&locks[i]);
    spin_unlock(&locks[i]);
}
`
	r := locking(t, src)
	if r.WithConfine.NumErrors() != 0 {
		t.Errorf("want 0 errors, got %d", r.WithConfine.NumErrors())
	}
	count := 0
	ast.Inspect(r.Module.Prog, func(n ast.Node) bool {
		if _, ok := n.(*ast.ConfineStmt); ok {
			count++
		}
		return true
	})
	if count != 1 {
		t.Errorf("adjacent confines of one expression must merge; found %d:\n%s",
			count, ast.String(r.Module.Prog))
	}
}

func TestLockingLoopedLocking(t *testing.T) {
	// Locking inside a loop body: the per-iteration confine keeps the
	// pair strong; the loop fixpoint keeps the outer state sound.
	src := `
global locks: lock[8];

fun handle(n: int) {
    let i = new 0;
    while (*i < n) {
        spin_lock(&locks[*i]);
        work();
        spin_unlock(&locks[*i]);
        *i = *i + 1;
    }
}
`
	r := locking(t, src)
	if r.WithConfine.NumErrors() != 0 {
		t.Errorf("looped locking must be clean with confine, got %d:\n%s",
			r.WithConfine.NumErrors(), ast.String(r.Module.Prog))
	}
}

func TestCheckAnnotationsFacade(t *testing.T) {
	m := load(t, `
fun f(q: ref int): int {
    restrict p = q {
        return *q;
    }
    return 0;
}
`)
	r := m.CheckAnnotations()
	if r.OK() {
		t.Error("violation must be reported through the facade")
	}
}

func TestInferRestrictFacade(t *testing.T) {
	m := load(t, `
fun f(q: ref int): int {
    let p = q;
    return *p;
}
`)
	r := m.InferRestrict(false)
	if len(r.Restricted) != 1 {
		t.Errorf("facade restrict inference: %s", r.Summary())
	}
}

func TestLockingIrqProtocol(t *testing.T) {
	// change_type is protocol-generic: an interrupt-flag pair behaves
	// exactly like the spin-lock pair, including confine recovery and
	// mixed-protocol modules.
	src := `
global flags: lock[4];
global big: lock;

fun isr_window(cpu: int) {
    irq_save(&flags[cpu]);
    work();
    irq_restore(&flags[cpu]);
}

fun mixed(cpu: int) {
    irq_save(&flags[cpu]);
    spin_lock(&big);
    spin_unlock(&big);
    irq_restore(&flags[cpu]);
}

fun bug() {
    irq_restore(&big); // restore without save: real bug
}
`
	r := locking(t, src)
	if r.NoConfine.NumErrors() <= 1 {
		t.Errorf("baseline must report weak-update errors on the flag array: %d", r.NoConfine.NumErrors())
	}
	if r.WithConfine.NumErrors() != 1 {
		t.Errorf("confine must keep only the real bug, got %d:\n%s",
			r.WithConfine.NumErrors(), ast.String(r.Module.Prog))
	}
	if r.AllStrong.NumErrors() != 1 {
		t.Errorf("all-strong keeps the real bug: %d", r.AllStrong.NumErrors())
	}
}

// confinedErrors runs confine inference over src with opts and
// returns the qualifier analysis's error count on the result: the
// with-confine column of AnalyzeLocking, with chosen inference legs.
func confinedErrors(t *testing.T, src string, opts confine.Options) int {
	t.Helper()
	m := load(t, src)
	opts.Info = m.TInfo
	cres, err := confine.InferAndApply(m.Prog, m.Diags, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cres.Solution.Release()
	return qual.Analyze(cres.Infer, cres.Solution, qual.ModePlain).NumErrors()
}

// TestLockingOptionFlags checks that each inference leg AnalyzeLocking
// runs (confine.Options.Params and Lets) recovers its own pattern:
// without it the pattern stays unrecovered, and AnalyzeLocking (every
// leg on) recovers it.
func TestLockingOptionFlags(t *testing.T) {
	// The planter already confines pairs INSIDE one block (including
	// inside a helper body), so to observe the Params/Lets inference
	// legs we need patterns whose lock ops never appear as two
	// statements of one block: split sub-helpers.
	helperSrc := `
global locks: lock[8];
fun take(l: ref lock) { spin_lock(l); }
fun rel(l: ref lock) { spin_unlock(l); }
fun with(l: ref lock) {
    take(l);
    rel(l);
}
fun entry(i: int) { with(&locks[i]); }
`
	letSrc := `
global locks: lock[8];
fun take(l: ref lock) { spin_lock(l); }
fun rel(l: ref lock) { spin_unlock(l); }
fun handle(i: int) {
    let l = &locks[i];
    take(l);
    rel(l);
}
`
	if confinedErrors(t, helperSrc, confine.Options{Params: false, Lets: true}) == 0 {
		t.Error("without param inference the sub-helper pattern must stay unrecovered")
	}
	if confinedErrors(t, letSrc, confine.Options{Params: true, Lets: false}) == 0 {
		t.Error("without let inference the let-bound sub-helper pattern must stay unrecovered")
	}
	for _, src := range []string{helperSrc, letSrc} {
		if r := locking(t, src); r.WithConfine.NumErrors() != 0 {
			t.Errorf("param and let inference must recover the pattern: %d (%s)",
				r.WithConfine.NumErrors(), ast.String(r.Module.Prog))
		}
	}
}

// TestAnalyzeLockingReleasesSolutions checks that AnalyzeLockingCtx
// releases both solutions it makes, baseline first, also when it
// exports a package summary.
func TestAnalyzeLockingReleasesSolutions(t *testing.T) {
	var released []*solve.Result
	defer func(orig func(*solve.Result)) { releaseSolution = orig }(releaseSolution)
	releaseSolution = func(r *solve.Result) {
		released = append(released, r)
		r.Release()
	}
	for _, export := range []bool{false, true} {
		released = nil
		m := load(t, arrayPairSrc)
		lr, err := m.AnalyzeLockingCtx(context.Background(), LockingOptions{ExportAPI: export}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if export && lr.API == nil {
			t.Fatal("ExportAPI produced no package summary")
		}
		if len(released) != 2 || released[0] == released[1] {
			t.Fatalf("ExportAPI=%v: released %d solutions, want the baseline and the confine one", export, len(released))
		}
		if released[1] != lr.Confine.Solution {
			t.Errorf("ExportAPI=%v: the confine solution was not released", export)
		}
	}
}

// TestAnalyzeLockingRunTimes checks the clocks E4 reads: both runs
// take time, and together they fit inside the call that made them.
func TestAnalyzeLockingRunTimes(t *testing.T) {
	m := load(t, arrayPairSrc)
	start := time.Now()
	lr, err := m.AnalyzeLocking(LockingOptions{})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if lr.BaselineTime <= 0 || lr.ConfineTime <= 0 {
		t.Fatalf("run times baseline %v, confine %v; want both positive", lr.BaselineTime, lr.ConfineTime)
	}
	if sum := lr.BaselineTime + lr.ConfineTime; sum > wall {
		t.Errorf("run times sum to %v, more than the call's %v", sum, wall)
	}
}
