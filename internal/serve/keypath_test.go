package serve

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mint"
)

// keyPathBody is one inline request body of the shape loadbench's
// inline_parse workload sends: a sweep device as inline ParchMint JSON
// ({"device":...}) or as MINT text ({"text":...,"format":"mint"}).
type keyPathBody struct {
	name string
	body []byte
}

// keyPathBodies builds the inline bodies of the sweep devices whose
// component counts lie in [minComp, maxComp], each as JSON and as MINT,
// exactly as loadbench/workload.go encodes them.
func keyPathBodies(t testing.TB, minComp, maxComp int) []keyPathBody {
	t.Helper()
	var out []keyPathBody
	for _, sp := range bench.Sweep(10, 8, 2018) {
		if sp.Components < minComp || sp.Components > maxComp {
			continue
		}
		js, err := core.MarshalCanonical(sp.Device)
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := mint.FromDevice(sp.Device)
		if err != nil {
			t.Fatal(err)
		}
		txt, err := json.Marshal(struct {
			Text   string `json:"text"`
			Format string `json:"format"`
		}{mint.Print(f), "mint"})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out,
			keyPathBody{sp.Name + ".json", append(append([]byte(`{"device":`), js...), '}')},
			keyPathBody{sp.Name + ".mint", txt})
	}
	return out
}

// keySink keeps BenchmarkDecodeKey's key derivation from being optimized
// away.
var keySink string

// BenchmarkDecodeKey times the inline-body key path of a cache hit: one
// envelope decode plus one cache-key derivation, on the largest sweep
// device (1280 components) as JSON and as MINT.
func BenchmarkDecodeKey(b *testing.B) {
	s := New(Config{Workers: 1, BaseSeed: BaseSeedDefault})
	for _, kb := range keyPathBodies(b, 1280, 1280) {
		b.Run(kb.name, func(b *testing.B) {
			b.SetBytes(int64(len(kb.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req request
				if err := parseRequest(kb.body, &req); err != nil {
					b.Fatal(err)
				}
				keySink = s.cacheKey(opValidate, &req)
			}
		})
	}
}

// withoutHints returns req with the parser's encoding hints cleared, so
// appendRequestJSON and cacheKey take the re-encoding path.
func withoutHints(req request) request {
	req.deviceCompact, req.textRaw = false, nil
	return req
}

// TestCacheKeyHintsInvisible pins the hints as a pure shortcut: for every
// inline_parse body shape (JSON and MINT, plain and renamed), plus loose
// spellings of both that the hints must decline, the cache key and the
// canonical envelope are identical with the hints set and cleared.
func TestCacheKeyHintsInvisible(t *testing.T) {
	s := New(Config{Workers: 1, BaseSeed: BaseSeedDefault})
	var bodies []keyPathBody
	for _, kb := range keyPathBodies(t, 0, 160) {
		bodies = append(bodies, kb)
		// A renamed variant: the loadbench miss shape, the same body
		// under a fresh device name.
		name, _, _ := strings.Cut(kb.name, ".")
		renamed := strings.Replace(string(kb.body), name, name+"_u1p7", 1)
		bodies = append(bodies, keyPathBody{kb.name + "/renamed", []byte(renamed)})
	}
	bodies = append(bodies,
		keyPathBody{"loose/device", []byte(`{"device": { "name" : "a<b>&c " ,"layers":[ 1 ]}, "placer":"greedy"}`)},
		keyPathBody{"loose/text", []byte(`{"text":"DEVICE a\/b \u0041 <x> é  😀","format":"mint"}`)},
		keyPathBody{"canonical/text", []byte(`{"text":"DEVICE \"d\"\n\t\u0001\u003c \u2029 é 😀","format":"mint"}`)},
		keyPathBody{"dup", []byte(`{"text":"a","text":"a\/b","device":{"x":1},"device":{ "x":2 }}`)},
	)
	for _, kb := range bodies {
		var req request
		if err := parseRequest(kb.body, &req); err != nil {
			t.Fatalf("%s: %v", kb.name, err)
		}
		// The inline_parse shapes are canonical, so their hint must be
		// set; the loose spellings must have it declined.
		hinted := req.deviceCompact || req.textRaw != nil
		if want := !strings.HasPrefix(kb.name, "loose/") && kb.name != "dup"; hinted != want {
			t.Errorf("%s: hint set = %v, want %v", kb.name, hinted, want)
		}
		bare := withoutHints(req)
		got, err := appendRequestJSON(nil, &req)
		if err != nil {
			t.Fatalf("%s: %v", kb.name, err)
		}
		want, err := appendRequestJSON(nil, &bare)
		if err != nil {
			t.Fatalf("%s: %v", kb.name, err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: envelope with hints differs:\n got %.200s\nwant %.200s", kb.name, got, want)
		}
		for _, op := range []string{opValidate, opConvert, opStats} {
			if k, w := s.cacheKey(op, &req), s.cacheKey(op, &bare); k != w {
				t.Errorf("%s %s: key with hints %s, without %s", kb.name, op, k, w)
			}
		}
	}
}
