// Golden-artifact and determinism tests for the experiment harness: the
// committed results/*.txt are the pinned evaluation of the paper
// reproduction, so any drift in an algorithm, a generator, or a renderer
// fails here instead of silently rotting. The same run also checks the
// parallel execution engine: All at 8 workers must produce byte-identical
// artifacts to All at one, in the same order, while building each
// benchmark device exactly once per process.
package repro_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/experiments"
)

func TestGoldenArtifactsAndParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full artifact regeneration is slow in -short mode")
	}
	bench.ResetBuildCache()
	defer bench.ResetBuildCache()

	seq := experiments.All(1)
	// The exactly-once build property of a full sequential regeneration.
	for _, name := range bench.Names() {
		if n := bench.BuildCount(name); n != 1 {
			t.Errorf("%s: generator ran %d times during All(1), want 1", name, n)
		}
	}
	par := experiments.All(8)

	ids := experiments.IDs()
	if len(seq) != len(ids) || len(par) != len(ids) {
		t.Fatalf("artifact counts: sequential %d, parallel %d, want %d", len(seq), len(par), len(ids))
	}
	for i, id := range ids {
		if seq[i].ID != id || par[i].ID != id {
			t.Errorf("artifact %d: sequential %s, parallel %s, want %s", i, seq[i].ID, par[i].ID, id)
		}
	}
	// Parallel output is byte-identical to sequential output.
	for i := range seq {
		if seq[i].Text != par[i].Text {
			t.Errorf("%s: parallel artifact differs from sequential", seq[i].ID)
		}
	}
	// Sequential output is byte-identical to the committed golden results
	// (which were generated by a different process — this is the
	// across-runs determinism check).
	for _, a := range seq {
		want, err := os.ReadFile(filepath.Join("results", a.ID+".txt"))
		if err != nil {
			t.Errorf("%s: golden artifact missing: %v", a.ID, err)
			continue
		}
		if a.Text != string(want) {
			t.Errorf("%s: regenerated artifact differs from committed results/%s.txt; "+
				"if the change is intentional, regenerate with "+
				"`go run ./cmd/parchmint-bench -exp all -outdir results`",
				a.ID, a.ID)
		}
	}
}
