package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"localalias/internal/drivergen"
	"localalias/internal/parser"
	"localalias/internal/source"
	"localalias/internal/types"
)

// TestInferredProgramReparses requires the program that infer and
// confine responses carry — the module rewritten with the restricts
// and confines inference kept, let-inference on — to parse and pass
// standard checking again, for every golden file and corpus module
// and for one module that dereferences under a field access.
// An inferred let prints as the restricted let "restrict x = e;".
func TestInferredProgramReparses(t *testing.T) {
	files, err := filepath.Glob("../golden/testdata/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("golden files: %v (%d)", err, len(files))
	}
	type input struct{ name, src string }
	var inputs []input
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{filepath.Base(f), string(b)})
	}
	for _, s := range drivergen.Corpus() {
		inputs = append(inputs, input{s.Name, s.Source()})
	}
	// A dereference under a field access, which no other input has:
	// (*p).l must not print as *p.l, which reads back as *(p.l).
	inputs = append(inputs, input{"deref_field.mc", `
struct s {
    l: lock;
}

fun f(p: ref s) {
    spin_lock(&(*p).l);
    spin_unlock(&(*p).l);
}
`})
	restricted := 0
	for _, in := range inputs {
		for _, mode := range []string{ModeInfer, ModeConfine} {
			resp := Analyze(context.Background(), &AnalyzeRequest{
				Module: in.name, Source: in.src, Options: AnalyzeOptions{Mode: mode},
			})
			if resp.Failure != nil {
				t.Fatalf("%s %s: failure %+v", in.name, mode, resp.Failure)
			}
			if resp.Program == "" {
				continue // the source itself fails to parse or check
			}
			if mode == ModeInfer && resp.Infer.Restricted > 0 {
				restricted++
			}
			if err := recheckProgram(in.name, resp.Program); err != nil {
				t.Fatalf("%s %s: program does not re-check:\n%v\n%s", in.name, mode, err, resp.Program)
			}
		}
	}
	if restricted == 0 {
		t.Fatal("no input had an inferred restrict: the test checks nothing")
	}
}

// recheckProgram parses program, the rewritten module an infer or
// confine response carries, and checks it; the error lists every
// diagnostic of whichever step failed.
func recheckProgram(name, program string) error {
	var diags source.Diagnostics
	prog := parser.Parse(name, program, &diags)
	if !diags.HasErrors() {
		types.Check(prog, &diags)
	}
	if diags.HasErrors() {
		return errors.New(diags.String())
	}
	return nil
}
