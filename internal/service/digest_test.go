package service

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"localalias/internal/drivergen"
)

// digestFile holds one SHA-256 per engine configuration: the hash of
// the canonical response bodies of that configuration's requests,
// concatenated in request order.
const digestFile = "testdata/canonical_digests.txt"

// digestConfig is one engine configuration the digest test covers.
type digestConfig struct {
	name string
	reqs []*AnalyzeRequest
}

// digestConfigs lists the configurations: the 589 corpus modules in
// every mode, and the leaves of a 12-leaf XStack as multi_module
// requests (the three libraries shipped with each) in confine and
// qual mode.
func digestConfigs() []digestConfig {
	type module struct{ name, src string }
	var corpus []module
	for _, s := range drivergen.Corpus() {
		corpus = append(corpus, module{s.Name, s.Source()})
	}
	var libs []LibrarySource
	var leaves []module
	for _, m := range drivergen.XStack(12) {
		if strings.HasPrefix(m.Name, "xdrv") {
			leaves = append(leaves, module{m.Name, m.Source})
		} else {
			libs = append(libs, LibrarySource{Name: m.Name, Source: m.Source})
		}
	}
	var out []digestConfig
	add := func(name string, mods []module, opts AnalyzeOptions) {
		c := digestConfig{name: name}
		for _, m := range mods {
			c.reqs = append(c.reqs, &AnalyzeRequest{Module: m.name, Source: m.src, Options: opts})
		}
		out = append(out, c)
	}
	for _, mode := range []string{ModeCheck, ModeInfer, ModeConfine, ModeQual} {
		add("corpus/"+mode, corpus, AnalyzeOptions{Mode: mode})
	}
	for _, mode := range []string{ModeConfine, ModeQual} {
		add("xstack/"+mode, leaves, AnalyzeOptions{Mode: mode, MultiModule: true, Libraries: libs})
	}
	return out
}

// maskedSuffix names a configuration's second digest: the same
// bodies with the two propagation counters of solver_stats zeroed.
const maskedSuffix = "/masked"

// TestCanonicalDigests pins the engine's canonical bytes: every
// configuration's responses must hash to the digest recorded in
// testdata. A change that is meant to alter no response (a refactor,
// a performance change) must leave the file as it is; a change that
// alters responses on purpose updates the file with the digests the
// failure messages print, and says why.
//
// Each configuration also has a masked digest, taken with
// solver_stats.atoms_propagated and intersection_arrivals zeroed. A
// solver change that only moves how much propagation work is done
// (not what it computes) changes the full digest but must leave the
// masked one as it is.
func TestCanonicalDigests(t *testing.T) {
	want := readDigests(t)
	configs := digestConfigs()
	if len(want) != 2*len(configs) {
		t.Errorf("%s has %d digests, want a full and a masked one for each of %d configurations",
			digestFile, len(want), len(configs))
	}
	for _, c := range configs {
		full, masked := sha256.New(), sha256.New()
		for _, req := range c.reqs {
			resp := Analyze(context.Background(), req)
			if resp.Failure != nil {
				t.Errorf("%s %s: failure %+v", c.name, req.Module, resp.Failure)
			}
			b, err := resp.MarshalCanonical()
			if err != nil {
				t.Fatal(err)
			}
			full.Write(b)
			resp.Diagnostics.Stats.AtomsPropagated = 0
			resp.Diagnostics.Stats.IntersectionArrivals = 0
			if b, err = resp.MarshalCanonical(); err != nil {
				t.Fatal(err)
			}
			masked.Write(b)
		}
		for _, d := range []struct {
			name string
			sum  []byte
		}{{c.name, full.Sum(nil)}, {c.name + maskedSuffix, masked.Sum(nil)}} {
			if got := hex.EncodeToString(d.sum); got != want[d.name] {
				t.Errorf("%s (%d requests): digest %s, want %s", d.name, len(c.reqs), got, want[d.name])
			}
		}
	}
}

// readDigests parses the digest file: one "name sha256" pair a line;
// blank lines and lines starting with # are skipped.
func readDigests(t *testing.T) map[string]string {
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
