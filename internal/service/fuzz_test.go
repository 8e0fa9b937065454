package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"localalias/internal/obs"
	"localalias/internal/parser"
	"localalias/internal/progen"
	"localalias/internal/source"
)

// fuzzTimeout bounds one analysis of a fuzz input; a run that hits it
// is still contained, but its bytes are not compared.
const fuzzTimeout = 10 * time.Second

// fuzzSeeds gathers the whole-pipeline seed corpus: the golden MiniC
// programs, the parser's fuzz corpus, and a few generated programs.
func fuzzSeeds(f *testing.F) []string {
	var seeds []string
	golden, err := filepath.Glob("../golden/testdata/*.mc")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range golden {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, string(src))
	}
	corpus, err := filepath.Glob("../parser/testdata/fuzz/FuzzParse/*")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// A corpus file is "go test fuzz v1" followed by one string(...)
		// line holding the quoted input.
		for _, line := range strings.Split(string(data), "\n") {
			if arg, ok := strings.CutPrefix(line, "string("); ok {
				src, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
				if err != nil {
					f.Fatalf("%s: %v", path, err)
				}
				seeds = append(seeds, src)
			}
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		seeds = append(seeds, progen.Generate(seed))
	}
	if len(golden) == 0 || len(corpus) == 0 {
		f.Fatal("seed corpus directories are empty")
	}
	return seeds
}

// serveAnalyze answers req through h's /v1/analyze handler.
func serveAnalyze(t *testing.T, h http.Handler, req *AnalyzeRequest) []byte {
	body, err := json.Marshal(req)
	if err != nil {
		t.Error(err)
		return nil
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Errorf("mode %s: status %d: %s", req.Options.Mode, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// FuzzAnalyzeBounded drives the whole pipeline, in every mode, on
// arbitrary source text. Property 1: no panic escapes the fault guard
// (an escaped panic crashes the fuzz worker). Property 2: for every
// input that parses, the daemon path — byte cache and two request
// workers, with each input sent twice at once so one request may
// coalesce onto the other — answers bytes identical to a bare
// AnalyzeBounded run with no cache and one worker. Property 3: the
// program of a healthy infer or confine response re-parses and
// passes standard checking.
func FuzzAnalyzeBounded(f *testing.F) {
	for _, src := range fuzzSeeds(f) {
		f.Add(src)
	}
	// The daemon's only state between requests is its byte cache: a
	// cache miss runs exactly the bare engine.
	srv := NewServer(ServerOptions{Workers: 2, RequestTimeout: fuzzTimeout, TraceEntries: -1})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip()
		}
		var diags source.Diagnostics
		parser.Parse("fuzz.mc", src, &diags)
		// JSON carries only valid UTF-8, so other inputs reach the
		// daemon altered; the bare run still exercises them.
		parses := src != "" && utf8.ValidString(src) && !diags.HasErrors()
		for _, mode := range []string{ModeCheck, ModeInfer, ModeConfine, ModeQual} {
			req := AnalyzeRequest{Module: "fuzz.mc", Source: src, Options: AnalyzeOptions{Mode: mode}}
			bare := AnalyzeBounded(context.Background(), &req, fuzzTimeout)
			if bare.Failure == nil && bare.Program != "" {
				if err := recheckProgram("fuzz.mc", bare.Program); err != nil {
					t.Errorf("mode %s: program does not re-check:\n%v\n%s", mode, err, bare.Program)
				}
			}
			if !parses {
				continue
			}
			want, err := bare.MarshalCanonical()
			if err != nil {
				t.Fatalf("mode %s: %v", mode, err)
			}
			var got [2][]byte
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					r := req
					got[i] = serveAnalyze(t, h, &r)
				}(i)
			}
			wg.Wait()
			if bare.Failure != nil {
				// A timeout depends on the host, and a contained panic's
				// stack on the call path: only a panic must agree, and
				// only in kind.
				if bare.Failure.Kind == obs.KindTimeout {
					continue
				}
				for _, g := range got {
					var resp AnalyzeResponse
					if err := json.Unmarshal(g, &resp); err != nil || resp.Failure == nil || resp.Failure.Kind != bare.Failure.Kind {
						t.Errorf("mode %s: bare run failed (%s: %s), daemon answered:\n%s",
							mode, bare.Failure.Kind, bare.Failure.Message, g)
					}
				}
				continue
			}
			for _, g := range got {
				if !bytes.Equal(g, want) {
					t.Errorf("mode %s: daemon bytes differ from a bare run\n--- daemon\n%s\n--- bare\n%s", mode, g, want)
				}
			}
		}
	})
}
