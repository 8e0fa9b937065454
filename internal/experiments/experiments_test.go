package experiments

import (
	"context"
	"strings"
	"testing"

	"localalias/internal/drivergen"
)

// sampleSpecs picks a stratified sample across categories so the test
// stays fast; TestFullCorpus (guarded by -short) covers everything.
func sampleSpecs() []*drivergen.ModuleSpec {
	corpus := drivergen.Corpus()
	var out []*drivergen.ModuleSpec
	for i, m := range corpus {
		switch m.Category {
		case drivergen.Clean:
			if i%30 == 0 {
				out = append(out, m)
			}
		case drivergen.BugsOnly:
			if i%10 == 0 {
				out = append(out, m)
			}
		case drivergen.FullRecovery:
			if i%8 == 0 {
				out = append(out, m)
			}
		case drivergen.Partial:
			out = append(out, m)
		}
	}
	return out
}

func TestSampleCorpusMatchesExpectations(t *testing.T) {
	specs := sampleSpecs()
	res := RunCorpus(context.Background(), CorpusOptions{Specs: specs})
	if res.Mismatches != 0 {
		for _, m := range res.Modules {
			if m.Failure != nil {
				t.Errorf("%s: %v", m.Spec.Name, m.Failure)
			} else if m.Measured != m.Spec.Expected {
				t.Errorf("%s (%s): measured %+v expected %+v",
					m.Spec.Name, m.Spec.Category, m.Measured, m.Spec.Expected)
			}
		}
		t.Fatalf("%d mismatches in sample", res.Mismatches)
	}
}

func TestFullCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full 589-module corpus (use the default long mode or cmd/experiments)")
	}
	res := RunCorpus(context.Background(), CorpusOptions{Specs: drivergen.Corpus()})
	if res.Mismatches != 0 {
		n := 0
		for _, m := range res.Modules {
			if m.Failure != nil || m.Measured != m.Spec.Expected {
				t.Errorf("%s: err=%v measured %+v expected %+v",
					m.Spec.Name, m.Failure, m.Measured, m.Spec.Expected)
				n++
				if n > 10 {
					break
				}
			}
		}
		t.Fatalf("%d mismatches", res.Mismatches)
	}
	// The paper's headline numbers, measured end to end.
	if res.Clean != 352 || res.ErrorsNoHelp != 85 || res.StrongMatters != 152 ||
		res.FullyRecov != 138 || res.PartialRecov != 14 {
		t.Errorf("breakdown: clean=%d nohelp=%d matters=%d full=%d partial=%d",
			res.Clean, res.ErrorsNoHelp, res.StrongMatters, res.FullyRecov, res.PartialRecov)
	}
	if res.Potential != 3277 {
		t.Errorf("potential = %d, want 3277", res.Potential)
	}
	if res.Eliminated != 3116 {
		t.Errorf("eliminated = %d, want 3116", res.Eliminated)
	}
	rate := res.EliminationRate()
	if rate < 0.945 || rate > 0.96 {
		t.Errorf("elimination rate = %.3f, want ≈0.95", rate)
	}
}

func TestRenderings(t *testing.T) {
	res := RunCorpus(context.Background(), CorpusOptions{Specs: sampleSpecs()})
	sum := res.Summary()
	for _, want := range []string{"Section 7 summary", "elimination rate", "paper"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary lacks %q:\n%s", want, sum)
		}
	}
	f6 := res.Figure6()
	if !strings.Contains(f6, "Figure 6") || !strings.Contains(f6, "modules") {
		t.Errorf("figure 6:\n%s", f6)
	}
	f7 := res.Figure7()
	for _, name := range []string{"emu10k1", "ide_tape", "wavelan_cs"} {
		if !strings.Contains(f7, name) {
			t.Errorf("figure 7 lacks %s:\n%s", name, f7)
		}
	}
}

// TestTiming bounds the E4 overhead ratio. The ratio is the median of
// three rounds, so a single stalled round on a busy host cannot trip
// the bound; a confine side that really got several times costlier
// still does.
func TestTiming(t *testing.T) {
	tr, err := Timing(3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.WithConfine <= 0 || tr.WithoutConfine <= 0 {
		t.Fatalf("degenerate timing: %+v", tr)
	}
	// Confine inference costs something but must stay modest — the
	// paper's ratio is ~1.10x; allow generous slack for machine
	// noise, but catch pathological blowups.
	if tr.OverheadRatio > 6 {
		t.Errorf("confine inference overhead ratio %.2f is pathological", tr.OverheadRatio)
	}
	if !strings.Contains(tr.String(), "paper: 28.5s") {
		t.Errorf("render: %s", tr)
	}

	ct, err := TimingCorpus(3)
	if err != nil {
		t.Fatal(err)
	}
	if ct.WithConfine <= 0 || ct.WithoutConfine <= 0 || ct.OverheadRatio > 6 {
		t.Errorf("corpus-wide timing: %+v", ct)
	}
	if !strings.Contains(ct.String(), "corpus, 589 modules") {
		t.Errorf("render: %s", ct)
	}
}

func TestRunCorpusDeterministic(t *testing.T) {
	specs := sampleSpecs()[:12]
	a := RunCorpus(context.Background(), CorpusOptions{Specs: specs})
	b := RunCorpus(context.Background(), CorpusOptions{Specs: specs})
	for i := range a.Modules {
		if a.Modules[i].Measured != b.Modules[i].Measured {
			t.Errorf("%s: %+v vs %+v", a.Modules[i].Spec.Name,
				a.Modules[i].Measured, b.Modules[i].Measured)
		}
	}
	if a.Potential != b.Potential || a.Eliminated != b.Eliminated {
		t.Error("aggregates differ across runs")
	}
}

func TestCSV(t *testing.T) {
	res := RunCorpus(context.Background(), CorpusOptions{Specs: sampleSpecs()[:5]})
	csv := res.CSV()
	if !strings.HasPrefix(csv, "module,category,") {
		t.Errorf("csv header: %q", csv[:40])
	}
	if strings.Count(csv, "\n") != 6 {
		t.Errorf("csv rows: %q", csv)
	}
}
