// Differential verification of the hand-rolled JSON codec in
// canonenc.go/canondec.go against encoding/json. The serving tier derives
// cache keys, journal entries, and response bodies from these bytes, so
// the property under test is strict: the fast decoder accepts exactly
// what the reflect decoder accepts, produces the same device, and the
// canonical encoder emits byte-for-byte what json.Marshal emits (and
// core.Marshal what json.MarshalIndent emits, plus a newline). The
// encoding/json side of each comparison is the reference codec in
// jsonref_test.go.
package core_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pnr"
)

// edgeDevices exercises encoder paths the bench corpus misses: empty and
// nil collections, both feature kinds, hostile strings, and float formats
// near the 'e'-notation switchover.
func edgeDevices() map[string]*core.Device {
	return map[string]*core.Device{
		"zero": {},
		"nil-vs-empty": {
			Name:       "d",
			Layers:     []core.Layer{},
			Components: []core.Component{{ID: "c1", Layers: nil, Ports: []core.Port{}}},
			Connections: []core.Connection{
				{ID: "n1", Sinks: nil},
				{ID: "n2", Sinks: []core.Target{}, Paths: []core.ChannelPath{}},
			},
		},
		"strings": {
			Name: "a<b>&c d e\"f\\g\tnl\nfffd\xffend\x01",
			Layers: []core.Layer{
				{ID: "π-layer", Name: "emoji \U0001F600", Type: "FLOW"},
			},
			ValveMap:   map[string]string{"<k&>": "v ", "\xfe": "x"},
			ValveTypes: map[string]core.ValveType{"b": "NORMALLY_OPEN", "a": "NORMALLY_CLOSED"},
		},
		"floats": {
			Name: "f",
			Params: core.Params{
				"tiny":      1e-7,
				"small":     1e-6,
				"edge":      1e21,
				"below":     9.999999e20,
				"neg":       -1234.5678,
				"zero":      0,
				"negzero":   math.Copysign(0, -1),
				"int":       42,
				"precision": 0.1,
				"max":       math.MaxFloat64,
				"denorm":    5e-324,
			},
		},
		"features": {
			Name:   "feat",
			Layers: []core.Layer{{ID: "f0", Name: "flow", Type: "FLOW"}},
			Components: []core.Component{
				{ID: "m1", Name: "mixer", Entity: "MIXER", Layers: []string{"f0"},
					XSpan: 400, YSpan: 300,
					Ports:  []core.Port{{Label: "p2", Layer: "f0", X: 0, Y: 150}, {Label: "p1", Layer: "f0", X: 400, Y: 150}},
					Params: core.Params{"rotation": 90}},
			},
			Connections: []core.Connection{
				{ID: "n1", Name: "net", Layer: "f0",
					Source: core.Target{Component: "m1", Port: "p1"},
					Sinks:  []core.Target{{Component: "m1", Port: "p2"}, {Component: "m1"}},
					Paths: []core.ChannelPath{
						{Source: geom.Pt(1, 2), Sink: geom.Pt(3, 4)},
						{Source: geom.Pt(5, 6), Sink: geom.Pt(7, 8),
							Waypoints: []geom.Point{geom.Pt(9, 10), geom.Pt(11, 12)}},
					}},
			},
			Features: []core.Feature{
				{Kind: core.FeatureComponent, ID: "m1", Name: "mixer", Layer: "f0",
					Location: geom.Pt(100, 200), XSpan: 400, YSpan: 300, Depth: 10},
				{Kind: core.FeatureChannel, ID: "n1_seg0", Name: "net", Layer: "f0",
					Connection: "n1", Width: 30, Source: geom.Pt(1, 2), Sink: geom.Pt(3, 4), Depth: 10},
				{Kind: core.FeatureChannel, ID: "n1_seg1", Layer: "f0",
					Connection: "n1", Width: 0, Depth: 0},
			},
			Params:     core.Params{"x-span": 5000, "y-span": 4000},
			ValveMap:   map[string]string{"v1": "n1"},
			ValveTypes: map[string]core.ValveType{"v1": "NORMALLY_CLOSED"},
		},
	}
}

func corpusDevices() map[string]*core.Device {
	out := edgeDevices()
	for _, b := range bench.Suite() {
		out["bench/"+b.Name] = b.Device()
	}
	return out
}

// pnrDevices returns the default place-and-route output of every suite
// device: features of both kinds, v1.2 paths and valve maps. -short keeps
// the seven assay devices and skips the synthetic ones.
func pnrDevices(t *testing.T) map[string]*core.Device {
	t.Helper()
	out := make(map[string]*core.Device)
	for _, b := range bench.Suite() {
		if testing.Short() && b.Class == bench.Synthetic {
			continue
		}
		res, err := pnr.Run(b.Device(), pnr.NewOptions())
		if err != nil {
			t.Fatalf("%s: pnr: %v", b.Name, err)
		}
		out["pnr/"+b.Name] = res.Device
	}
	return out
}

// marshalStd is the reference rendering of core.Marshal: encoding/json's
// indented encoding plus a trailing newline.
func marshalStd(d *core.Device) ([]byte, error) {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// TestMarshalCanonicalMatchesStd pins the determinism contract: the
// hand-rolled compact encoder emits exactly json.Marshal's bytes, so
// cache keys and journal entries survive the codec swap unchanged, and
// core.Marshal emits exactly json.MarshalIndent's bytes plus a newline,
// so files the CLIs write match what they wrote under encoding/json.
func TestMarshalCanonicalMatchesStd(t *testing.T) {
	devices := corpusDevices()
	for name, d := range pnrDevices(t) {
		devices[name] = d
	}
	for name, d := range devices {
		want, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("%s: json.Marshal: %v", name, err)
		}
		got, err := core.MarshalCanonical(d)
		if err != nil {
			t.Fatalf("%s: MarshalCanonical: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: canonical bytes diverge from encoding/json\n got: %s\nwant: %s", name, got, want)
		}
		want, err = marshalStd(d)
		if err != nil {
			t.Fatalf("%s: json.MarshalIndent: %v", name, err)
		}
		got, err = core.Marshal(d)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Marshal bytes diverge from encoding/json\n got: %s\nwant: %s", name, got, want)
		}
	}
}

// TestMarshalCanonicalErrors pins error parity with json.Marshal on the
// two failure classes the encoder can hit, for both the compact and the
// indented encoding.
func TestMarshalCanonicalErrors(t *testing.T) {
	for name, d := range map[string]*core.Device{
		"nan-param":    {Name: "d", Params: core.Params{"bad": math.NaN()}},
		"inf-param":    {Name: "d", Params: core.Params{"bad": math.Inf(1)}},
		"unknown-kind": {Name: "d", Features: []core.Feature{{Kind: core.FeatureKind(9), ID: "x"}}},
	} {
		if _, err := json.Marshal(d); err == nil {
			t.Fatalf("%s: json.Marshal unexpectedly succeeded", name)
		}
		if _, err := core.MarshalCanonical(d); err == nil {
			t.Errorf("%s: MarshalCanonical accepted what json.Marshal rejects", name)
		}
		_, err := core.Marshal(d)
		if err == nil {
			t.Errorf("%s: Marshal accepted what json.Marshal rejects", name)
		} else if want := `core: encoding device "d": `; !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: Marshal error %q lacks prefix %q", name, err, want)
		}
	}
}

// decoderInputs are the hand-picked differential decode cases: valid
// bodies, hostile-but-valid bodies, and every rejection class.
func decoderInputs() []string {
	return []string{
		// Plain shapes.
		`{}`,
		`null`,
		`  null  `,
		`{"name":"d","layers":[],"components":[],"connections":[]}`,
		`{"name":"d","layers":null,"components":null,"connections":null}`,
		// Case-folded and unicode-folded keys (U+212A KELVIN, U+017F long s).
		`{"NAME":"upper","LaYeRs":[{"Id":"a","TYPE":"FLOW"}]}`,
		"{\"linKs\":1,\"sinKs\":2}",
		"{\"name\":\"x\",\"componentſ\":[{\"id\":\"c\"}]}",
		// Duplicate keys: merge semantics for slices, maps, structs.
		`{"name":"a","name":"b"}`,
		`{"layers":[{"id":"a","name":"n"}],"layers":[{"type":"FLOW"}]}`,
		`{"layers":[{"id":"a"},{"id":"b"}],"layers":[{"name":"x"}]}`,
		`{"layers":[{"id":"a"},{"id":"b"}],"layers":[],"layers":[{"name":"x"}]}`,
		`{"params":{"a":1},"params":{"b":2}}`,
		`{"params":{"a":1},"params":null}`,
		`{"components":[{"id":"c","layers":["x","y"],"layers":["z"]}]}`,
		// Null in every position.
		`{"name":null,"layers":[null],"components":[null],"connections":[null]}`,
		`{"features":[null],"params":{"k":null},"valveMap":{"k":null},"valveTypeMap":{"k":null}}`,
		`{"components":[{"id":"c","ports":[null],"x-span":null}]}`,
		`{"connections":[{"source":null,"sinks":[null],"paths":[null]}]}`,
		`{"connections":[{"paths":[{"source":null,"sink":{"x":1},"wayPoints":null}]}]}`,
		`{"connections":[{"paths":[{"wayPoints":[null,[1],[1,2],[1,2,3],[1,2,"x"]]}]}]}`,
		`{"features":[{"location":{"x":1,"y":2},"location":null,"location":{"y":9}}]}`,
		`{"features":[{"connection":"n","width":null,"source":{"x":1},"type":"other"}]}`,
		`{"features":[{"type":"channel"}]}`,
		// Unknown fields, including compound ones, are skipped.
		`{"bogus":{"deep":[1,{"x":"y"}]},"name":"kept","version":"1.2"}`,
		`{"version":null}`,
		// String escapes: surrogate pairs, lone surrogates, raw invalid UTF-8.
		`{"name":"😀 pair"}`,
		`{"name":"\ud83d lone"}`,
		`{"name":"\ud83dA lowmiss"}`,
		`{"name":"\ude00 low"}`,
		"{\"name\":\"\x00nul\"}",
		"{\"name\":\"raw\xff\xfe\"}",
		`{"name":"\/slash\b\f"}`,
		// Numbers: limits, overflow, fractions into ints, exponents.
		`{"components":[{"x-span":9223372036854775807}]}`,
		`{"components":[{"x-span":-9223372036854775808}]}`,
		`{"components":[{"x-span":9223372036854775808}]}`,
		`{"components":[{"x-span":1.5}]}`,
		`{"components":[{"x-span":1e2}]}`,
		`{"components":[{"x-span":"12"}]}`,
		`{"params":{"k":1e400}}`,
		`{"params":{"k":1e-400}}`,
		`{"params":{"k":-0}}`,
		`{"params":{"k":0.5e+3}}`,
		`{"params":{"k":01}}`,
		`{"params":{"k":.5}}`,
		`{"params":{"k":5.}}`,
		`{"params":{"k":+1}}`,
		`{"params":{"k":1e}}`,
		// Type mismatches at the top level and below.
		`123`,
		`"device"`,
		`true`,
		`[]`,
		`{"name":1}`,
		`{"layers":{}}`,
		`{"layers":[1]}`,
		`{"params":[1]}`,
		`{"params":{"k":"v"}}`,
		// Syntax errors.
		``,
		`   `,
		`{`,
		`{"name"`,
		`{"name":}`,
		`{"name":"d",}`,
		`{,}`,
		`{"a":1 "b":2}`,
		`[1,]`,
		`{"name":"d"} trailing`,
		`null trailing`,
		`nullx`,
		`nul`,
		`{"name":"unterminated`,
		"{\"name\":\"ctrl\x01\"}",
		`{"name":"\q"}`,
		`{"name":"\u12"}`,
		`{"name":"\u12zz"}`,
		strings.Repeat(`[`, 10001),
		strings.Repeat(`[`, 5000) + strings.Repeat(`]`, 5000),
		`{"bogus":` + strings.Repeat(`{"x":`, 10001) + `1` + strings.Repeat(`}`, 10001) + `}`,
	}
}

// checkDecodeParity runs both decoders on one input and enforces the
// differential contract, for the compact and the indented re-encoding.
func checkDecodeParity(t *testing.T, data []byte) {
	t.Helper()
	fast, fastErr := core.UnmarshalFast(data)
	std, stdErr := core.DecodeStd(data)
	if (fastErr == nil) != (stdErr == nil) {
		t.Fatalf("accept/reject mismatch on %q\nfast: %v\nstd:  %v", data, fastErr, stdErr)
	}
	if fastErr != nil {
		return
	}
	if !reflect.DeepEqual(fast, std) {
		t.Fatalf("decoded devices diverge on %q\nfast: %#v\nstd:  %#v", data, fast, std)
	}
	fastC, err1 := core.MarshalCanonical(fast)
	stdC, err2 := json.Marshal(std)
	if err1 != nil || err2 != nil {
		t.Fatalf("re-encode failed on %q: fast=%v std=%v", data, err1, err2)
	}
	if !bytes.Equal(fastC, stdC) {
		t.Fatalf("canonical bytes diverge on %q\nfast: %s\nstd:  %s", data, fastC, stdC)
	}
	fastI, err1 := core.Marshal(fast)
	stdI, err2 := marshalStd(std)
	if err1 != nil || err2 != nil {
		t.Fatalf("indented re-encode failed on %q: fast=%v std=%v", data, err1, err2)
	}
	if !bytes.Equal(fastI, stdI) {
		t.Fatalf("indented bytes diverge on %q\nfast: %s\nstd:  %s", data, fastI, stdI)
	}
}

func TestUnmarshalFastMatchesStd(t *testing.T) {
	for _, in := range decoderInputs() {
		checkDecodeParity(t, []byte(in))
	}
	for name, d := range corpusDevices() {
		enc, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		checkDecodeParity(t, enc)
		indented, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			t.Fatalf("%s: marshal indent: %v", name, err)
		}
		checkDecodeParity(t, indented)
	}
}

// FuzzCanonCodec is the differential fuzzer the determinism contract
// rides on: for arbitrary input, the hand-rolled decoder and
// encoding/json agree on accept/reject, on the decoded device, and on
// the canonical re-encoding bytes.
func FuzzCanonCodec(f *testing.F) {
	for _, b := range bench.Suite() {
		if data, err := json.Marshal(b.Device()); err == nil {
			f.Add(data)
		}
	}
	for _, in := range decoderInputs() {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeParity(t, data)
	})
}
