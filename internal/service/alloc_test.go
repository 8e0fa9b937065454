package service

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"localalias/internal/drivergen"
)

// qualAllocBudget bounds the bytes one qual analysis of corpus module
// driver_063 allocates: 1.10 × the 166 KB measured once the checker
// dropped its struct-allocation table and the confine planter its
// string-keyed maps (175 KB before that; 267 KB before the parser
// stopped building a token slice and each request began recycling its
// solver arena and inference tables). Each of those last three savings
// alone is worth 14–24% of the figure, so a looser bound would let any
// one of them regress unnoticed.
const qualAllocBudget = 165_648 * 11 / 10

// TestQualAllocationBudget guards the per-request garbage of a cold
// analysis: the median TotalAlloc delta of several qual runs of one
// corpus module must stay inside qualAllocBudget, so a returning token
// slice or an arena that is no longer released shows up as a failure.
func TestQualAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the runtime allocates")
	}
	var req *AnalyzeRequest
	for _, s := range drivergen.Corpus() {
		if s.Name == "driver_063" {
			req = &AnalyzeRequest{Module: s.Name, Source: s.Source(), Options: AnalyzeOptions{Mode: ModeQual}}
		}
	}
	if req == nil {
		t.Fatal("corpus module driver_063 not found")
	}
	Analyze(context.Background(), req) // fill the solver pools
	samples := make([]uint64, 9)
	for i := range samples {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp := Analyze(context.Background(), req)
		runtime.ReadMemStats(&after)
		if resp.Failure != nil {
			t.Fatalf("failure: %+v", resp.Failure)
		}
		samples[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(samples)
	if med := samples[len(samples)/2]; med > qualAllocBudget {
		t.Fatalf("one qual analysis of %s allocates %d bytes (median of %v), budget %d",
			req.Module, med, samples, qualAllocBudget)
	}
}
