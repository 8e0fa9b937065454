package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestXmoduleBenchReportSchema guards the committed BENCH_xmodule.json
// against drift: it must parse into the current report shape with no
// unknown fields, cover the cache-replay pair with the configured
// number of interleaved rounds, and carry the
// regeneration command. A failure means the harness changed without
// regenerating the artifact (go run ./cmd/experiments
// -bench-xmodule-json BENCH_xmodule.json).
func TestXmoduleBenchReportSchema(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_xmodule.json"))
	if err != nil {
		t.Fatalf("reading committed benchmark report: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep XmoduleBenchReport
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("BENCH_xmodule.json does not match the current report shape: %v", err)
	}
	if rep.Modules != xmoduleBenchLeaves+3 {
		t.Errorf("report covers %d modules; harness uses %d", rep.Modules, xmoduleBenchLeaves+3)
	}
	if !bytes.Contains(data, []byte("go run ./cmd/experiments -bench-xmodule-json")) {
		t.Error("report description lost the regeneration command")
	}
	want := map[string]bool{xmoduleBenchEntry: false}
	for _, e := range rep.Benchmarks {
		if _, ok := want[e.Name]; !ok {
			t.Errorf("unexpected benchmark entry %q", e.Name)
			continue
		}
		want[e.Name] = true
		if len(e.BeforeNsPerOp) != xmoduleBenchRounds || len(e.AfterNsPerOp) != xmoduleBenchRounds {
			t.Errorf("%s: %d/%d rounds recorded, want %d",
				e.Name, len(e.BeforeNsPerOp), len(e.AfterNsPerOp), xmoduleBenchRounds)
		}
		for i := range e.BeforeNsPerOp {
			if e.BeforeNsPerOp[i] <= 0 {
				t.Errorf("%s: before round %d is %d ns/op", e.Name, i, e.BeforeNsPerOp[i])
			}
		}
		if e.MedianSpeedup <= 0 {
			t.Errorf("%s: median speedup %v", e.Name, e.MedianSpeedup)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("report is missing benchmark entry %q", name)
		}
	}
}
