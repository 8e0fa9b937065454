package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// decodeSeedRequests lists the requests the decoder tests start from:
// the 589 corpus modules in every mode and the XStack leaves as
// multi_module requests (the canonical-digest configurations).
func decodeSeedRequests() []AnalyzeRequest {
	var reqs []AnalyzeRequest
	for _, c := range digestConfigs() {
		for _, r := range c.reqs {
			reqs = append(reqs, *r)
		}
	}
	return reqs
}

// decodeSeedBatch is one batch holding both kinds of seed: the first
// corpus module in each mode and every multi_module request.
func decodeSeedBatch(reqs []AnalyzeRequest) BatchRequest {
	var batch BatchRequest
	modes := map[string]bool{}
	for _, r := range reqs {
		if r.Options.MultiModule || !modes[r.Options.Mode] {
			batch.Requests = append(batch.Requests, r)
			modes[r.Options.Mode] = true
		}
	}
	return batch
}

// handBodies are bodies outside the shape encoding/json writes, each of
// which the one-pass decoder must decline, and a few inside it. A
// batch body is decoded as a BatchRequest, any other as an
// AnalyzeRequest and also as the second entry of a batch.
var handBodies = []struct {
	name, body     string
	batch, onePass bool
}{
	{"upper-case key", `{"Module":"a.mc","source":"x"}`, false, false},
	{"duplicate key", `{"module":"a.mc","module":"b.mc","source":"x"}`, false, false},
	{"duplicate options", `{"options":{"mode":"check"},"options":{"params":true},"source":"x"}`, false, false},
	{"duplicate library key", `{"source":"x","options":{"libraries":[{"name":"a","name":"b","source":"y"}]}}`, false, false},
	{"duplicate requests", `{"requests":[{"source":"x"}],"requests":[]}`, true, false},
	{"null", `{"module":null,"source":"x"}`, false, false},
	{"null options", `{"options":null,"source":"x"}`, false, false},
	{"null body", `null`, false, false},
	{"unknown field", `{"module":"a.mc","source":"x","options":{"mode":"qual","general":true}}`, false, false},
	{"surrogate pair", `{"source":"\ud83d\ude00"}`, false, false},
	{"lone surrogate", `{"source":"\udc00"}`, false, false},
	{"invalid UTF-8", "{\"source\":\"a\xffb\"}", false, false},
	{"raw control character", "{\"source\":\"a\x01b\"}", false, false},
	{"raw newline", "{\"source\":\"a\nb\"}", false, false},
	{"trailing data", `{"module":"a.mc","source":"x"} junk`, false, false},
	{"second value", `{"source":"x"}{"source":"y"}`, false, false},
	{"trailing comma", `{"source":"x",}`, false, false},
	{"escaped key", `{"mo\u0064ule":"a.mc","source":"x"}`, false, false},
	{"bad escape", `{"source":"\x41"}`, false, false},
	{"short unicode escape", `{"source":"\u00"}`, false, false},
	{"number for string", `{"module":1,"source":"x"}`, false, false},
	{"string for bool", `{"source":"x","options":{"params":"true"}}`, false, false},
	{"truncated", `{"source":"x"`, false, false},
	{"empty", ``, false, false},
	{"array at top", `[{"source":"x"}]`, false, false},
	{"escapes", `{"source":"\"\\\/\b\f\n\r\t&é \u0000"}`, false, true},
	{"whitespace", " \t\r\n{ \"source\" : \"x\" , \"options\" : { \"params\" : true } } \n", false, true},
	{"empty libraries", `{"source":"x","options":{"libraries":[]}}`, false, true},
	{"empty object", `{}`, false, true},
	{"empty batch", `{"requests":[]}`, true, true},
	{"non-ASCII", `{"source":"ünïcödé ✓ 😀"}`, false, true},
}

// FuzzDecodeMatchesUnmarshal holds the one-pass decoder to
// encoding/json: for every input, decoding into an AnalyzeRequest and
// into a BatchRequest either declines, or json.Unmarshal accepts the
// input and yields a deeply equal value.
func FuzzDecodeMatchesUnmarshal(f *testing.F) {
	reqs := decodeSeedRequests()
	for i := range reqs {
		body, err := json.Marshal(&reqs[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	body, err := json.Marshal(decodeSeedBatch(reqs))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	for _, h := range handBodies {
		f.Add([]byte(h.body))
		f.Add([]byte(`{"requests":[` + h.body + `]}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode[AnalyzeRequest](t, body)
		checkDecode[BatchRequest](t, body)
	})
}

// checkDecode decodes body into a T both ways. When the one-pass
// decoder accepts, json.Unmarshal must too, with the same value; when
// it declines, it must leave its destination as it was. It reports
// whether the one-pass decoder accepted.
func checkDecode[T any](t *testing.T, body []byte) bool {
	t.Helper()
	var fast, slow T
	ok := decodeOnePass(body, &fast)
	errSlow := json.Unmarshal(body, &slow)
	if ok {
		if errSlow != nil {
			t.Fatalf("%T: one-pass decoder accepted %q; json.Unmarshal: %v", fast, body, errSlow)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("%T: decoders disagree on %q\none-pass: %+v\njson:     %+v", fast, body, fast, slow)
		}
		return true
	}
	var zero T
	if !reflect.DeepEqual(fast, zero) {
		t.Fatalf("%T: declining decoder wrote %+v", fast, fast)
	}
	return false
}

// TestDecodeHandBodies: each hand-made body takes the path it is meant
// to, and agrees with encoding/json either way, alone and as a batch
// entry.
func TestDecodeHandBodies(t *testing.T) {
	for _, h := range handBodies {
		t.Run(h.name, func(t *testing.T) {
			if h.batch {
				if got := checkDecode[BatchRequest](t, []byte(h.body)); got != h.onePass {
					t.Errorf("one-pass = %v, want %v", got, h.onePass)
				}
				return
			}
			if got := checkDecode[AnalyzeRequest](t, []byte(h.body)); got != h.onePass {
				t.Errorf("one-pass = %v, want %v", got, h.onePass)
			}
			batch := `{"requests":[{"source":"y"},` + h.body + `]}`
			if got := checkDecode[BatchRequest](t, []byte(batch)); got != h.onePass {
				t.Errorf("as a batch entry: one-pass = %v, want %v", got, h.onePass)
			}
		})
	}
}

// TestDecodeBatchAllocation: decoding a MaxBatch-entry batch of seed
// requests takes the one-pass path and allocates at most three times
// its body's bytes, so the decoder's buffers grow with each string, not
// with what is left of the body.
func TestDecodeBatchAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the runtime allocates")
	}
	reqs := decodeSeedRequests()
	batch := BatchRequest{Requests: make([]AnalyzeRequest, MaxBatch)}
	for i := range batch.Requests {
		batch.Requests[i] = reqs[i%len(reqs)]
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	var got BatchRequest
	runtime.ReadMemStats(&before)
	ok := decodeOnePass(body, &got)
	runtime.ReadMemStats(&after)
	if !ok || len(got.Requests) != MaxBatch {
		t.Fatalf("one-pass decode of a %d-entry batch: ok=%v, %d entries", MaxBatch, ok, len(got.Requests))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 3*uint64(len(body)) {
		t.Fatalf("decoding a %d-byte batch allocated %d bytes (%.2fx), budget 3x",
			len(body), alloc, float64(alloc)/float64(len(body)))
	}
}

// BenchmarkDecodeBody decodes the seed requests' bodies, one per
// iteration in turn, in one pass and with json.Unmarshal.
func BenchmarkDecodeBody(b *testing.B) {
	reqs := decodeSeedRequests()
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		var err error
		if bodies[i], err = json.Marshal(&reqs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("one-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req AnalyzeRequest
			if !decodeOnePass(bodies[i%len(bodies)], &req) {
				b.Fatal("declined")
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req AnalyzeRequest
			if err := json.Unmarshal(bodies[i%len(bodies)], &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestReadRequestBodyLengths: a body is read whole whether its length
// is declared or not, and a body shorter than its declared length is a
// 400.
func TestReadRequestBodyLengths(t *testing.T) {
	const body = `{"module":"m.mc","source":"fun f() { }"}`
	for _, c := range []struct {
		name   string
		length int64
		ok     bool
	}{{"declared", int64(len(body)), true}, {"unknown", -1, true}, {"cut short", int64(len(body)) + 5, false}} {
		t.Run(c.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body))
			r.ContentLength = c.length
			w := httptest.NewRecorder()
			var req AnalyzeRequest
			raw, ok := ReadRequest(w, r, &req)
			if ok != c.ok {
				t.Fatalf("ok = %v, want %v (status %d, %s)", ok, c.ok, w.Code, w.Body)
			}
			if ok && (string(raw) != body || req.Module != "m.mc") {
				t.Fatalf("read %q as %+v", raw, req)
			}
			if !ok && w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", w.Code)
			}
		})
	}
}
