package core_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// Differential fuzzers for the serving tier's re-encoding shortcuts: the
// cache key copies a request's raw device or text bytes instead of
// re-encoding them whenever the parser reports them already canonical,
// so those reports must never be wrong, and the run-copying compactor
// must still equal encoding/json's json.RawMessage embedding.

// rawInputs seeds the raw-value fuzzers with compact and loose spellings
// of every rewrite the canonical encoders make.
var rawInputs = []string{
	`{"a":1}`,
	`{ "a" : [1, 2] }`,
	"{\"a\":\n\t1}",
	`["<b>&amp;"]`,
	"[\"  \"]",
	"[\"\xe2\x80\"]",
	"[\"\xe2\x82\xac\"]",
	`["a\/b","\u0041","😀"]`,
	`["\u2028",{"k":"\u003c"}]`,
	"[\"\xff\xfe\"]",
	`"plain"`,
	`-1.5e+3`,
	`[true,false,null]`,
	` {"x":"y"} `,
	`{"k":"\\\""}`,
}

// stringInputs seeds FuzzReadStringRaw: literals AppendJSONString writes
// back unchanged, and near misses that decode the same but are spelled
// differently.
var stringInputs = []string{
	`"abc"`,
	`""`,
	`"a\"b\\c\n\r\t\b\f"`,
	`"\u0000\u001f<>&  "`,
	`"\u001F"`,
	`"\u000a"`,
	`"\u0041"`,
	`"\u2028\u2029\u003c\u003e\u0026"`,
	`"\ufffd"`,
	`"\u00e9"`,
	`"a\/b"`,
	`"<>&"`,
	"\" \"",
	`"😀"`,
	`"\ud800"`,
	`"�"`,
	"\"\xef\xbf\xbd\"",
	"\"\xff\"",
	"\"é😀 DEVICE d\"",
	`"unterminated`,
	`"bad\x"`,
}

func FuzzAppendCompactJSON(f *testing.F) {
	for _, in := range rawInputs {
		f.Add([]byte(in))
	}
	if data, err := json.MarshalIndent(bench.Suite()[0].Device(), "", "  "); err == nil {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if !json.Valid(src) {
			return
		}
		want, err := json.Marshal(json.RawMessage(src))
		if err != nil {
			t.Fatalf("json.Marshal(%q): %v", src, err)
		}
		if got := core.AppendCompactJSON(nil, src); !bytes.Equal(got, want) {
			t.Fatalf("AppendCompactJSON(%q)\n got %q\nwant %q", src, got, want)
		}
		if got := core.AppendCompactJSON([]byte("x"), src); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("AppendCompactJSON with prefix (%q) = %q", src, got)
		}
	})
}

func FuzzRawValueCompact(f *testing.F) {
	for _, in := range rawInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := core.NewParser(data)
		defer p.Release()
		raw, compact, err := p.RawValueCompact()
		if err != nil {
			if json.Valid(data) {
				t.Fatalf("RawValueCompact(%q) rejected valid JSON: %v", data, err)
			}
			return
		}
		if !json.Valid(raw) {
			t.Fatalf("RawValueCompact(%q) accepted invalid JSON %q", data, raw)
		}
		same := bytes.Equal(core.AppendCompactJSON(nil, raw), raw)
		if compact != same {
			t.Fatalf("RawValueCompact(%q): compact = %v, but AppendCompactJSON(raw) == raw is %v", data, compact, same)
		}
	})
}

func FuzzReadStringRaw(f *testing.F) {
	for _, in := range stringInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := core.NewParser(data)
		defer p.Release()
		s, raw, canonical, err := p.ReadStringRaw()
		if err != nil {
			return
		}
		var want string
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("ReadStringRaw(%q) accepted %q, encoding/json: %v", data, raw, err)
		}
		if s != want {
			t.Fatalf("ReadStringRaw(%q) = %q, encoding/json = %q", data, s, want)
		}
		// The report is exact: canonical exactly when re-encoding the
		// decoded string reproduces the literal.
		same := string(core.AppendJSONString(nil, s)) == string(raw)
		if canonical != same {
			t.Fatalf("ReadStringRaw(%q): canonical = %v, but AppendJSONString(decoded) == raw is %v", data, canonical, same)
		}
	})
}
