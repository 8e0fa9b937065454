package service

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

const cleanCheckSrc = `fun f(x: ref int): int {
    restrict y = x {
        return *y;
    }
    return 0;
}
`

// TestCacheKeySensitivity: every input of the content hash — module
// name, source bytes, mode, and each option flag — must change the
// key, and identical requests must share one.
func TestCacheKeySensitivity(t *testing.T) {
	base := AnalyzeRequest{Module: "m.mc", Source: "fun f() {}\n",
		Options: AnalyzeOptions{Mode: ModeCheck}}
	if got, want := CacheKey(&base), CacheKey(&base); got != want {
		t.Fatalf("identical requests hash differently: %s vs %s", got, want)
	}
	variants := map[string]AnalyzeRequest{
		"module":  {Module: "other.mc", Source: base.Source, Options: base.Options},
		"source":  {Module: base.Module, Source: base.Source + " ", Options: base.Options},
		"mode":    {Module: base.Module, Source: base.Source, Options: AnalyzeOptions{Mode: ModeInfer}},
		"params":  {Module: base.Module, Source: base.Source, Options: AnalyzeOptions{Mode: ModeCheck, Params: true}},
		"liberal": {Module: base.Module, Source: base.Source, Options: AnalyzeOptions{Mode: ModeCheck, Liberal: true}},
	}
	baseKey := CacheKey(&base)
	seen := map[string]string{"base": baseKey}
	for name, v := range variants {
		k := CacheKey(&v)
		if k == baseKey {
			t.Errorf("changing %s did not change the cache key", name)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("variants %s and %s collide on key %s", name, prev, k)
		}
		seen[k] = name
	}
	// "" selects qual, so it must share qual's key.
	dflt := AnalyzeRequest{Module: "m.mc", Source: base.Source}
	qual := AnalyzeRequest{Module: "m.mc", Source: base.Source,
		Options: AnalyzeOptions{Mode: ModeQual}}
	if CacheKey(&dflt) != CacheKey(&qual) {
		t.Error(`mode "" and mode "qual" should share a cache key`)
	}
	// "" selects the current API version, so it must share v1's key.
	versioned := base
	versioned.APIVersion = APIVersion
	if CacheKey(&base) != CacheKey(&versioned) {
		t.Error(`api_version "" and the current version should share a cache key`)
	}
}

// probe looks key up without running it: a miss abandons its claim at
// once. It reports the hit's bytes.
func probe(c *Cache, key string) ([]byte, bool) {
	hit, claim, _ := c.Lookup(context.Background(), key, "")
	if claim != nil {
		claim.Abandon()
		return nil, false
	}
	return hit.Data, true
}

// fill stores val under key the way the server stores a cold run: a
// lookup that claims the key, then a healthy Finish.
func fill(t *testing.T, c *Cache, key string, val []byte) {
	t.Helper()
	_, claim, _ := c.Lookup(context.Background(), key, "")
	if claim == nil {
		t.Fatalf("fill(%s): key already cached", key)
	}
	claim.Finish(val, false, 0)
}

// TestCacheHitMissAccounting: lookups and fills keep exact counters.
func TestCacheHitMissAccounting(t *testing.T) {
	c := NewCache(4)
	fill(t, c, "a", []byte("1"))
	if v, ok := probe(c, "a"); !ok || string(v) != "1" {
		t.Fatalf("probe(a) = %q, %v; want 1, true", v, ok)
	}
	probe(c, "missing")
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Evictions != 0 || st.Entries != 1 || st.Capacity != 4 {
		t.Errorf("stats = %+v; want hits=1 misses=2 evictions=0 entries=1 capacity=4", st)
	}
}

// TestCacheEviction: a capacity-2 cache drops the least recently used
// entry, and recency is refreshed by a hit.
func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	fill(t, c, "a", []byte("1"))
	fill(t, c, "b", []byte("2"))
	probe(c, "a")                // a is now most recently used
	fill(t, c, "c", []byte("3")) // must evict b
	if _, ok := probe(c, "b"); ok {
		t.Error("b survived eviction; LRU order ignores hit recency")
	}
	if _, ok := probe(c, "a"); !ok {
		t.Error("a was evicted despite being most recently used")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v; want evictions=1 entries=2", st)
	}
}

// TestCacheMinimumCapacity: capacity below 1 is clamped, not rejected.
func TestCacheMinimumCapacity(t *testing.T) {
	c := NewCache(0)
	fill(t, c, "a", []byte("1"))
	fill(t, c, "b", []byte("2"))
	if st := c.Stats(); st.Entries != 1 || st.Capacity != 1 {
		t.Errorf("stats = %+v; want entries=1 capacity=1", st)
	}
}

// TestResponseDeterminism: two cold runs of the same request render
// byte-identical canonical JSON — the property that makes serving a
// cache hit indistinguishable from re-running the analysis.
func TestResponseDeterminism(t *testing.T) {
	for _, mode := range []string{ModeCheck, ModeInfer, ModeConfine, ModeQual} {
		req := &AnalyzeRequest{Module: "det.mc", Source: cleanCheckSrc,
			Options: AnalyzeOptions{Mode: mode}}
		first, err := Analyze(context.Background(), req).MarshalCanonical()
		if err != nil {
			t.Fatalf("%s: marshal: %v", mode, err)
		}
		second, err := Analyze(context.Background(), req).MarshalCanonical()
		if err != nil {
			t.Fatalf("%s: marshal: %v", mode, err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: two cold runs render different bytes:\n--- first\n%s\n--- second\n%s",
				mode, first, second)
		}
		if first[len(first)-1] != '\n' {
			t.Errorf("%s: canonical form lacks the trailing newline", mode)
		}
	}
}

// TestCacheGetReturnsDefensiveCopy is the regression test for the
// shared-slice bug: a caller mutating a hit's bytes must not corrupt
// the cached canonical response for later hits.
func TestCacheGetReturnsDefensiveCopy(t *testing.T) {
	c := NewCache(4)
	orig := []byte(`{"ok":true}`)
	fill(t, c, "k", orig)

	first, ok := probe(c, "k")
	if !ok {
		t.Fatal("filled entry missing")
	}
	for i := range first {
		first[i] = 'X' // a hostile (or merely careless) caller
	}

	second, ok := probe(c, "k")
	if !ok {
		t.Fatal("entry vanished after a mutated hit")
	}
	if !bytes.Equal(second, []byte(`{"ok":true}`)) {
		t.Fatalf("cached bytes corrupted by mutating a previous hit: %q", second)
	}

	// The value handed to Finish must be isolated too.
	orig[0] = 'Y'
	third, _ := probe(c, "k")
	if !bytes.Equal(third, []byte(`{"ok":true}`)) {
		t.Fatalf("cached bytes corrupted by mutating the Finish argument: %q", third)
	}
}

// TestCacheKeyCoversAllOptionFields is the reflect guard for the
// hand-packed-flags bug: every field of AnalyzeOptions must perturb
// the cache key, including fields added after this test was written.
// A new field that the canonical encoding cannot cover (unexported,
// or tagged json:"-") fails loudly instead of silently aliasing
// cache entries across option values.
func TestCacheKeyCoversAllOptionFields(t *testing.T) {
	rt := reflect.TypeOf(AnalyzeOptions{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.PkgPath != "" {
			t.Errorf("AnalyzeOptions.%s is unexported: the canonical encoding cannot cover it, so it must not exist on the options struct", f.Name)
			continue
		}
		if tag := f.Tag.Get("json"); tag == "-" {
			t.Errorf("AnalyzeOptions.%s is tagged json:\"-\": it is invisible to the cache key, so identical keys would span different option values — move it to AnalyzeRequest if it is an execution knob", f.Name)
			continue
		}
		req := AnalyzeRequest{Module: "m.mc", Source: "fun f() {}\n",
			Options: AnalyzeOptions{Mode: ModeCheck}}
		before := CacheKey(&req)
		fv := reflect.ValueOf(&req.Options).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Bool:
			fv.SetBool(!fv.Bool())
		case reflect.String:
			fv.SetString(fv.String() + "-x")
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fv.SetInt(fv.Int() + 7)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fv.SetUint(fv.Uint() + 7)
		case reflect.Float32, reflect.Float64:
			fv.SetFloat(fv.Float() + 7)
		case reflect.Slice:
			// Appending a fresh element must perturb the key; the
			// element's own fields are covered by the canonical JSON
			// encoding of the whole slice.
			fv.Set(reflect.Append(fv, reflect.Zero(f.Type.Elem())))
		default:
			t.Fatalf("AnalyzeOptions.%s has kind %s this guard cannot perturb — extend the switch", f.Name, f.Type.Kind())
		}
		if CacheKey(&req) == before {
			t.Errorf("AnalyzeOptions.%s does not affect the cache key", f.Name)
		}
	}
}

// TestCacheKeyRequestFieldContract is the other half of the guard:
// every field of AnalyzeRequest must either perturb the key (wire
// fields) or be a json:"-" execution knob listed here with the reason
// results stay byte-identical across its values. A new field in
// neither category fails, forcing the author to decide.
func TestCacheKeyRequestFieldContract(t *testing.T) {
	// Execution knobs deliberately outside the cache key. Each entry
	// asserts: response bytes are identical at every value of the
	// field, so a response computed at one setting is a valid hit for
	// any other.
	exempt := map[string]string{
		"Generate":      "source synthesis seam; requests carrying it are never cached",
		"Obs":           "tracing does not change canonical bytes",
		"SolverWorkers": "ignored; kept for perfbench",
	}
	rt := reflect.TypeOf(AnalyzeRequest{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		tagged := f.Tag.Get("json") == "-"
		_, listed := exempt[f.Name]
		switch {
		case tagged && !listed:
			t.Errorf("AnalyzeRequest.%s is json:\"-\" but not in this test's exemption table: state why responses are byte-identical across its values, or put it on the wire and into the key", f.Name)
		case !tagged && listed:
			t.Errorf("AnalyzeRequest.%s is exempted here but serialized on the wire — it must perturb the cache key instead", f.Name)
		case !tagged:
			switch f.Name {
			case "APIVersion", "Module", "Source":
				a := AnalyzeRequest{Module: "m.mc", Source: "s"}
				b := a
				reflect.ValueOf(&b).Elem().Field(i).SetString("other")
				if CacheKey(&a) == CacheKey(&b) {
					t.Errorf("AnalyzeRequest.%s does not affect the cache key", f.Name)
				}
			case "Options":
				// Covered field-by-field by TestCacheKeyCoversAllOptionFields.
			default:
				t.Errorf("AnalyzeRequest.%s is a new wire field: teach this guard how to perturb it", f.Name)
			}
		}
	}
	// Exemptions must not outlive their fields.
	for name := range exempt {
		if _, ok := rt.FieldByName(name); !ok {
			t.Errorf("exemption for AnalyzeRequest.%s refers to a field that no longer exists", name)
		}
	}
}
