package obs

import (
	"strings"
	"testing"
)

const sampleTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

func TestParseTraceparentValid(t *testing.T) {
	tc, ok := ParseTraceparent(sampleTraceparent)
	if !ok {
		t.Fatal("valid traceparent rejected")
	}
	if got := tc.TraceIDString(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %s", got)
	}
	if got := tc.Traceparent(); got != sampleTraceparent {
		t.Errorf("round trip = %s, want %s", got, sampleTraceparent)
	}
	if !tc.Sampled() {
		t.Error("flags 01 should report sampled")
	}
	if tc2, ok := ParseTraceparent(strings.Replace(sampleTraceparent, "-01", "-00", 1)); !ok || tc2.Sampled() {
		t.Error("flags 00 should parse and report unsampled")
	}
}

func TestParseTraceparentForwardCompatVersions(t *testing.T) {
	// An unknown version with the version-00 shape is accepted (the spec's
	// forward-compatibility rule), with or without trailing '-' fields.
	base := "cc" + sampleTraceparent[2:]
	if _, ok := ParseTraceparent(base); !ok {
		t.Error("future version with v00 shape rejected")
	}
	if _, ok := ParseTraceparent(base + "-extra-fields"); !ok {
		t.Error("future version with extra dash-separated fields rejected")
	}
	if _, ok := ParseTraceparent(base + "junk"); ok {
		t.Error("future version with non-dash suffix accepted")
	}
	// Version 00 must be exactly 55 bytes.
	if _, ok := ParseTraceparent(sampleTraceparent + "-extra"); ok {
		t.Error("version 00 with trailing fields accepted")
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00",
		sampleTraceparent[:54],             // truncated
		"ff" + sampleTraceparent[2:],       // version ff is forbidden
		"0" + sampleTraceparent[2:],        // bad length
		strings.ToUpper(sampleTraceparent), // uppercase hex
		"00-" + strings.Repeat("0", 32) + sampleTraceparent[35:],  // all-zero trace id
		sampleTraceparent[:36] + "0000000000000000" + "-01",       // all-zero span id
		strings.Replace(sampleTraceparent, "-", "_", 1),           // wrong separator
		"00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01", // non-hex digit
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", s)
		}
	}
}

func TestChildKeepsTraceMintsSpan(t *testing.T) {
	tc, _ := ParseTraceparent(sampleTraceparent)
	child := tc.Child()
	if child.TraceID != tc.TraceID || child.Flags != tc.Flags {
		t.Error("child must keep trace id and flags")
	}
	if child.SpanID == tc.SpanID {
		t.Error("child must mint a fresh span id")
	}
	if !child.Valid() {
		t.Error("child must be valid")
	}
}

func TestNewTraceContextUniqueAndValid(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		tc := NewTraceContext()
		if !tc.Valid() || !tc.Sampled() {
			t.Fatalf("fresh root invalid: %+v", tc)
		}
		id := tc.TraceIDString()
		if seen[id] {
			t.Fatalf("duplicate trace id %s", id)
		}
		seen[id] = true
	}
}

func TestValidTracestate(t *testing.T) {
	good := []string{
		"vendor=value",
		"a=b,c=d",
		"rojo=00f067aa0ba902b7, congo=t61rcWkgMzE",
		"k_y-1*@/x=anything but commas",
	}
	for _, s := range good {
		if !ValidTracestate(s) {
			t.Errorf("ValidTracestate(%q) = false, want true", s)
		}
	}
	bad := []string{
		"",
		"noequals",
		"=value",
		"key=",
		"UPPER=x",
		"a=b,c",
		"k=v\x00",
		"k=v1,k2=v=2",
		strings.Repeat("a=b,", 200) + "a=b", // too many members / too long
	}
	for _, s := range bad {
		if ValidTracestate(s) {
			t.Errorf("ValidTracestate(%q) = true, want false", s)
		}
	}
}

// The parse and append paths run per request before the worker gate, so
// they must not allocate.
func TestTraceparentParseAppendAllocFree(t *testing.T) {
	var buf [traceparentLen]byte
	allocs := testing.AllocsPerRun(200, func() {
		tc, ok := ParseTraceparent(sampleTraceparent)
		if !ok {
			t.Fatal("parse failed")
		}
		tc = tc.Child()
		if got := AppendTraceparent(buf[:0], tc); len(got) != traceparentLen {
			t.Fatalf("append length %d", len(got))
		}
		if !ValidTracestate("rojo=00f067aa0ba902b7") {
			t.Fatal("tracestate rejected")
		}
	})
	if allocs != 0 {
		t.Errorf("parse+append allocated %.1f times per run, want 0", allocs)
	}
}
