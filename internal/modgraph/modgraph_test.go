package modgraph

import (
	"fmt"
	"strings"
	"testing"

	"localalias/internal/core"
	"localalias/internal/drivergen"
	"localalias/internal/qual"
)

func stackSources(leaves int) []Source {
	var srcs []Source
	for _, m := range drivergen.XStack(leaves) {
		srcs = append(srcs, Source{Name: m.Name, Text: m.Source})
	}
	return srcs
}

// reports returns a module's three reports indexed by core.Variant*.
func reports(lr *core.LockingResult) [core.NumVariants]*qual.Report {
	return [core.NumVariants]*qual.Report{
		core.VariantNoConfine:   lr.NoConfine,
		core.VariantWithConfine: lr.WithConfine,
		core.VariantAllStrong:   lr.AllStrong,
	}
}

func triple(lr *core.LockingResult) drivergen.Triple {
	return drivergen.Triple{
		NoConfine: lr.NoConfine.NumErrors(),
		Confine:   lr.WithConfine.NumErrors(),
		AllStrong: lr.AllStrong.NumErrors(),
	}
}

// columnErrors sums one variant column over all analyzed modules.
func columnErrors(r *Result, v int) int {
	n := 0
	for _, mr := range r.Modules {
		if mr.Locking != nil {
			n += reports(mr.Locking)[v].NumErrors()
		}
	}
	return n
}

// position renders where a qualifier error is reported in mr's source.
func position(mr *ModuleResult, e qual.SiteError) string {
	return mr.Module.Prog.File.Position(e.Site.Start).String()
}

// render flattens a module's outcome to comparable text: the counts,
// then every variant's errors with their positions.
func render(mr *ModuleResult) string {
	lr := mr.Locking
	if lr == nil {
		return fmt.Sprintf("failed: %v", mr.Err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sites=%d planted=%d kept=%d\n", lr.NoConfine.NumSites, lr.Confine.Planted, len(lr.Confine.Kept))
	for v, rep := range reports(lr) {
		for _, e := range rep.Errors {
			fmt.Fprintf(&b, "%d %s %s\n", v, position(mr, e), e.String())
		}
	}
	return b.String()
}

// TestXStackExpectations runs the multi-module stack under both
// per-module havoc and the summary pass and checks every module's
// measured error triple against the generator's calibrated
// expectations — the numbers are measured, never fed in.
func TestXStackExpectations(t *testing.T) {
	mods := drivergen.XStack(6)
	srcs := stackSources(6)

	havoc := Analyze(srcs, Options{Havoc: true})
	summary := Analyze(srcs, Options{})
	for _, r := range []*Result{havoc, summary} {
		if f := r.Failures(); len(f) != 0 {
			t.Fatalf("unexpected failures: %v", f)
		}
	}

	for _, m := range mods {
		h := triple(havoc.Modules[m.Name].Locking)
		s := triple(summary.Modules[m.Name].Locking)
		if h != m.ExpHavoc {
			t.Errorf("%s havoc: got %+v, want %+v", m.Name, h, m.ExpHavoc)
		}
		if s != m.ExpSummary {
			t.Errorf("%s summary: got %+v, want %+v", m.Name, s, m.ExpSummary)
		}
	}

	// The acceptance property: the summary pass eliminates strictly
	// more errors than havoc in every mode column.
	for v := 0; v < core.NumVariants; v++ {
		if columnErrors(summary, v) >= columnErrors(havoc, v) {
			t.Errorf("variant %d: summary %d errors, havoc %d — want strictly fewer",
				v, columnErrors(summary, v), columnErrors(havoc, v))
		}
	}
}

// TestCrossModuleBugFinding checks that the planted cross-module
// double-acquire — invisible to per-module havoc — is reported by the
// summary pass at the offending call site with the callee's
// precondition.
func TestCrossModuleBugFinding(t *testing.T) {
	res := Analyze(stackSources(3), Options{})
	rep := res.Modules["xdrv00"].Locking.WithConfine
	found := false
	for _, e := range rep.Errors {
		if msg := e.String(); strings.Contains(msg, "xio.pulse") && strings.Contains(msg, "must be unlocked") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing call-site finding for cross-module double acquire; got %+v", rep.Errors)
	}
}

// TestCrossModuleDifferential is the CI corpus differential: wherever
// per-module havoc proved the absence of errors at a lock-op site,
// the summary pass must agree. Summary-only findings at imported call
// sites (ops containing a dot) are new information about callee
// preconditions, which havoc does not model, and are excluded.
func TestCrossModuleDifferential(t *testing.T) {
	srcs := stackSources(9)
	havoc := Analyze(srcs, Options{Havoc: true})
	summary := Analyze(srcs, Options{})
	for name, hm := range havoc.Modules {
		sm := summary.Modules[name]
		if hm.Locking == nil || sm == nil || sm.Locking == nil {
			t.Fatalf("%s: missing outcome", name)
		}
		hreps, sreps := reports(hm.Locking), reports(sm.Locking)
		for v := 0; v < core.NumVariants; v++ {
			bad := map[string]bool{}
			for _, e := range hreps[v].Errors {
				bad[position(hm, e)] = true
			}
			for _, e := range sreps[v].Errors {
				msg, pos := e.String(), position(sm, e)
				if strings.Contains(msg, ".") && !strings.HasPrefix(msg, "spin_") {
					continue // imported-call precondition: havoc never checked it
				}
				if !bad[pos] {
					t.Errorf("%s v%d: summary error at %s where havoc proved absence: %s",
						name, v, pos, msg)
				}
			}
		}
	}
}

// TestMissingImport checks the positioned diagnostic for an import of
// a package not present in the program.
func TestMissingImport(t *testing.T) {
	res := Analyze([]Source{
		{Name: "app", Text: "import \"nosuch\";\nfun f() { work(); }\n"},
	}, Options{})
	mr := res.Modules["app"]
	if !mr.Failed() {
		t.Fatal("expected failure for missing import")
	}
	msg := mr.Module.Diags.Err().Error()
	if !strings.Contains(msg, "cannot resolve import \"nosuch\"") {
		t.Fatalf("diagnostic = %q, want missing-package text", msg)
	}
	if !strings.Contains(msg, "app:1:") {
		t.Fatalf("diagnostic %q not positioned at the import declaration", msg)
	}
}

// TestImportCycle checks Go-style cycle rejection: every member fails
// with a positioned diagnostic naming the cycle, and an importer of a
// cycle member still analyzes via the parse-level surface fallback.
func TestImportCycle(t *testing.T) {
	res := Analyze([]Source{
		{Name: "a", Text: "import \"b\";\nfun fa() { b.fb(); }\n"},
		{Name: "b", Text: "import \"a\";\nfun fb() { a.fa(); }\n"},
		{Name: "top", Text: "import \"a\";\nfun go_() { a.fa(); }\n"},
	}, Options{})

	if len(res.Cycles) != 1 {
		t.Fatalf("cycles = %v, want one", res.Cycles)
	}
	for _, name := range []string{"a", "b"} {
		mr := res.Modules[name]
		if !mr.Cyclic || !mr.Failed() {
			t.Fatalf("%s: want cyclic failure, got %+v", name, mr)
		}
		msg := mr.Module.Diags.Err().Error()
		if !strings.Contains(msg, "import cycle: "+name+" -> ") {
			t.Fatalf("%s diagnostic = %q, want cycle path from %s", name, msg, name)
		}
		if !strings.Contains(msg, name+":1:") {
			t.Fatalf("%s diagnostic %q not positioned at the import", name, msg)
		}
	}
	// top still analyzes: a's surface comes from its parse tree and
	// the call into the failed package is havoc'd.
	top := res.Modules["top"]
	if top.Failed() {
		t.Fatalf("top should analyze despite cyclic dep: %v", top.Err)
	}
	if triple(top.Locking) != (drivergen.Triple{}) {
		t.Fatalf("top outcome = %+v, want clean", triple(top.Locking))
	}
}

// TestSelfImport checks that a self-import is a one-element cycle.
func TestSelfImport(t *testing.T) {
	res := Analyze([]Source{
		{Name: "solo", Text: "import \"solo\";\nfun f() { work(); }\n"},
	}, Options{})
	mr := res.Modules["solo"]
	if !mr.Cyclic {
		t.Fatalf("self-import not detected: %+v", mr)
	}
	if msg := mr.Module.Diags.Err().Error(); !strings.Contains(msg, "import cycle: solo -> solo") {
		t.Fatalf("diagnostic = %q", msg)
	}
}

// TestDuplicateModuleName checks the later duplicate is rejected.
func TestDuplicateModuleName(t *testing.T) {
	res := Analyze([]Source{
		{Name: "m", Text: "fun f() { work(); }\n"},
		{Name: "m", Text: "fun g() { work(); }\n"},
	}, Options{})
	if mr := res.Modules["m"]; !mr.Failed() || !strings.Contains(mr.Err.Error(), "duplicate module name") {
		t.Fatalf("duplicate not rejected: %+v", res.Modules["m"])
	}
}

// TestSingleModuleUnchanged checks that a module without imports gets
// exactly the same report through modgraph as through core directly:
// the linking layer must not perturb single-module results.
func TestSingleModuleUnchanged(t *testing.T) {
	spec := drivergen.Corpus()[0]
	src := spec.Source()

	res := Analyze([]Source{{Name: spec.Name, Text: src}}, Options{})
	mr := res.Modules[spec.Name]
	if mr.Failed() {
		t.Fatal(mr.Err)
	}

	m, err := core.LoadModule(spec.Name, src)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := m.AnalyzeLocking(core.LockingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, want := render(mr), render(&ModuleResult{Module: m, Locking: lr})
	if got != want {
		t.Fatalf("modgraph outcome\n%s!= direct outcome\n%s", got, want)
	}
}

// TestRerunAndCommentEditStable checks the pass is deterministic: an
// unchanged rerun gives equal outcomes, and a comment-only edit to a
// library leaves every module's outcome unchanged.
func TestRerunAndCommentEditStable(t *testing.T) {
	srcs := stackSources(4) // xhdr, xio, xqueue, xdrv00..03

	first := Analyze(srcs, Options{})
	if f := first.Failures(); len(f) != 0 {
		t.Fatalf("failures: %v", f)
	}

	second := Analyze(srcs, Options{})
	for name, mr := range second.Modules {
		if render(mr) != render(first.Modules[name]) {
			t.Fatalf("%s: rerun outcome differs", name)
		}
	}

	edited := make([]Source, len(srcs))
	copy(edited, srcs)
	found := false
	for i := range edited {
		if edited[i].Name == "xio" {
			edited[i].Text += "// rev2\n"
			found = true
		}
	}
	if !found {
		t.Fatal("stack has no xio module to edit")
	}
	third := Analyze(edited, Options{})
	for name, mr := range third.Modules {
		if render(mr) != render(first.Modules[name]) {
			t.Errorf("%s: outcome changed after a comment-only edit", name)
		}
	}
}

// TestSummariesOnlyForImported: a package summary is computed only
// for a module another module imports. In an XStack stack every
// library is imported and carries one; the leaf, which nothing
// imports, carries none. In havoc mode no module carries one.
func TestSummariesOnlyForImported(t *testing.T) {
	mods := drivergen.XStack(1)
	imported := map[string]bool{}
	for _, m := range mods {
		for _, d := range m.Deps {
			imported[d] = true
		}
	}
	if len(imported) != len(mods)-1 {
		t.Fatalf("%d of %d modules imported; want every library", len(imported), len(mods))
	}
	res := Analyze(stackSources(1), Options{})
	for _, m := range mods {
		lr := res.Modules[m.Name].Locking
		if lr == nil {
			t.Fatalf("%s failed: %v", m.Name, res.Modules[m.Name].Err)
		}
		if got := lr.API != nil; got != imported[m.Name] {
			t.Errorf("%s: has summary %v, imported %v", m.Name, got, imported[m.Name])
		}
	}
	for name, mr := range Analyze(stackSources(1), Options{Havoc: true}).Modules {
		if mr.Locking == nil || mr.Locking.API != nil {
			t.Errorf("havoc %s: result %v; want a result without a summary", name, mr.Locking)
		}
	}
}

// TestTopoOrder checks the schedule is bottom-up and deterministic.
func TestTopoOrder(t *testing.T) {
	res := Analyze(stackSources(2), Options{})
	pos := map[string]int{}
	for i, n := range res.Order {
		pos[n] = i
	}
	for _, m := range drivergen.XStack(2) {
		for _, d := range m.Deps {
			if pos[d] >= pos[m.Name] {
				t.Errorf("%s scheduled before its dependency %s", m.Name, d)
			}
		}
	}
}
