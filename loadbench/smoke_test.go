package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// serverBinary builds parchmint-serve from the enclosing repository.
func serverBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and boots the real server")
	}
	bin := filepath.Join(t.TempDir(), "parchmint-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/parchmint-serve").CombinedOutput(); err != nil {
		t.Fatalf("building parchmint-serve: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsSmoke runs every workload for a few seconds against a real
// server, with every output check (the committed manifest included), and
// one traced run.
func TestWorkloadsSmoke(t *testing.T) {
	bin := serverBinary(t)
	opts := func(name string, trace bool) options {
		return options{workload: name, seed: 1, seconds: 5, trace: trace, server: bin,
			workdir: t.TempDir(), manifest: "manifest.json"}
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep, err := run(context.Background(), opts(w.Name, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			for _, m := range endToEnd {
				if v, ok := rep.Metrics[m.name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v, want a positive value", m.name, v)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		rep, err := run(context.Background(), opts("inline_parse", true), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Metrics) != len(perLayer) {
			t.Fatalf("%d per-layer metrics, want %d", len(rep.Metrics), len(perLayer))
		}
		for _, name := range []string{"trace.requests", "core.decode_us", "cache.key_us", "validate.us", "trace.coverage_pct"} {
			if rep.Metrics[name].Value <= 0 {
				t.Errorf("%s = %v, want a positive value", name, rep.Metrics[name].Value)
			}
		}
	})
}

// TestBenchmarkJSONNamesWhatRunsReport pins BENCHMARK.json at the
// repository root to the workloads and metrics the command reports.
func TestBenchmarkJSONNamesWhatRunsReport(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the command", i, spec.Workloads[i].Name, w.Name)
		}
	}
	for _, pair := range []struct {
		spec []named
		code []struct{ name, unit string }
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(pair.spec) != len(pair.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the command %d", len(pair.spec), len(pair.code))
		}
		for i, m := range pair.code {
			if pair.spec[i].Name != m.name || pair.spec[i].Unit != m.unit {
				t.Errorf("metric %d: %s %s in BENCHMARK.json, %s %s in the command", i, pair.spec[i].Name, pair.spec[i].Unit, m.name, m.unit)
			}
		}
	}
}
