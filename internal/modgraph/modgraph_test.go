package modgraph

import (
	"reflect"
	"strings"
	"testing"

	"localalias/internal/core"
	"localalias/internal/drivergen"
)

func stackSources(leaves int) []Source {
	var srcs []Source
	for _, m := range drivergen.XStack(leaves) {
		srcs = append(srcs, Source{Name: m.Name, Text: m.Source})
	}
	return srcs
}

func triple(o *Outcome) drivergen.Triple {
	return drivergen.Triple{
		NoConfine: o.Errors(core.VariantNoConfine),
		Confine:   o.Errors(core.VariantWithConfine),
		AllStrong: o.Errors(core.VariantAllStrong),
	}
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
		h := triple(havoc.Modules[m.Name].Outcome)
		s := triple(summary.Modules[m.Name].Outcome)
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
		if summary.Errors(v) >= havoc.Errors(v) {
			t.Errorf("variant %d: summary %d errors, havoc %d — want strictly fewer",
				v, summary.Errors(v), havoc.Errors(v))
		}
	}
}

// TestCrossModuleBugFinding checks that the planted cross-module
// double-acquire — invisible to per-module havoc — is reported by the
// summary pass at the offending call site with the callee's
// precondition.
func TestCrossModuleBugFinding(t *testing.T) {
	res := Analyze(stackSources(3), Options{})
	out := res.Modules["xdrv00"].Outcome
	found := false
	for _, e := range out.Modes[core.VariantWithConfine].Errors {
		if strings.Contains(e.Msg, "xio.pulse") && strings.Contains(e.Msg, "must be unlocked") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing call-site finding for cross-module double acquire; got %+v",
			out.Modes[core.VariantWithConfine].Errors)
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
		if hm.Outcome == nil || sm == nil || sm.Outcome == nil {
			t.Fatalf("%s: missing outcome", name)
		}
		for v := 0; v < core.NumVariants; v++ {
			bad := map[string]bool{}
			for _, e := range hm.Outcome.Modes[v].Errors {
				bad[e.Pos] = true
			}
			for _, e := range sm.Outcome.Modes[v].Errors {
				if strings.Contains(e.Msg, ".") && !strings.HasPrefix(e.Msg, "spin_") {
					continue // imported-call precondition: havoc never checked it
				}
				if !bad[e.Pos] {
					t.Errorf("%s v%d: summary error at %s where havoc proved absence: %s",
						name, v, e.Pos, e.Msg)
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
	if top.Outcome == nil || triple(top.Outcome) != (drivergen.Triple{}) {
		t.Fatalf("top outcome = %+v, want clean", top.Outcome)
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
	want := distill(m, lr)
	if !reflect.DeepEqual(mr.Outcome, want) {
		t.Fatalf("modgraph outcome %+v != direct outcome %+v", mr.Outcome, want)
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
		if !reflect.DeepEqual(mr.Outcome, first.Modules[name].Outcome) {
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
		if !reflect.DeepEqual(mr.Outcome, first.Modules[name].Outcome) {
			t.Errorf("%s: outcome changed after a comment-only edit", name)
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
