package qual

// Soundness of the flow-sensitive locking analysis, quick-checked:
// when the analysis verifies every site (zero type errors in plain
// mode), no execution of the (deterministic, input-free) program may
// trap on a lock operation. This complements the restrict soundness
// property (Theorem 1, internal/interp): there the type system, here
// the client analysis.

import (
	"strings"
	"testing"
	"testing/quick"

	"localalias/internal/infer"
	"localalias/internal/interp"
	"localalias/internal/parser"
	"localalias/internal/progen"
	"localalias/internal/solve"
	"localalias/internal/source"
	"localalias/internal/types"
)

// analyzeAndRun returns (plain-mode error count, runtime lock trap).
func analyzeAndRun(t *testing.T, src string) (int, error) {
	t.Helper()
	var diags source.Diagnostics
	prog := parser.Parse("lock.mc", src, &diags)
	tinfo := types.Check(prog, &diags)
	if diags.HasErrors() {
		t.Fatalf("generator output invalid:\n%s\n%s", diags.String(), src)
	}
	res := infer.Run(tinfo, &diags, infer.Options{})
	sol := solve.Solve(res.Sys)
	rep := Analyze(res, sol, ModePlain)

	in := interp.New(tinfo, interp.Options{MaxSteps: 1 << 16})
	_, err := in.Call("main")
	return rep.NumErrors(), err
}

func TestQualSoundnessQuick(t *testing.T) {
	prop := func(seed int64) bool {
		src := progen.Locking(seed)
		errs, runErr := analyzeAndRun(t, src)
		if errs > 0 {
			return true // flagged: no claim
		}
		if runErr != nil && strings.Contains(runErr.Error(), "lock") {
			t.Logf("QUAL SOUNDNESS VIOLATION (seed %d): verified but trapped: %v\n%s",
				seed, runErr, src)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestQualSoundnessDistribution(t *testing.T) {
	verified, flagged, flaggedTrapped := 0, 0, 0
	for seed := int64(0); seed < 300; seed++ {
		errs, runErr := analyzeAndRun(t, progen.Locking(seed))
		if errs == 0 {
			verified++
		} else {
			flagged++
			if runErr != nil && strings.Contains(runErr.Error(), "lock") {
				flaggedTrapped++
			}
		}
	}
	t.Logf("verified=%d flagged=%d flagged-and-trapped=%d", verified, flagged, flaggedTrapped)
	if verified < 30 {
		t.Errorf("generator too hostile: only %d verified", verified)
	}
	if flagged < 30 {
		t.Errorf("generator too tame: only %d flagged", flagged)
	}
	if flaggedTrapped == 0 {
		t.Error("no flagged program actually trapped; the analysis may be vacuously strict")
	}
}
