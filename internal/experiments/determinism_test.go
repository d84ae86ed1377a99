package experiments

import (
	"testing"

	"repro/internal/bench"
)

// cheapIDs are the experiments fast enough to regenerate several times in
// a unit test. The full artifact set (including the annealing-heavy
// figures) is covered by the root-level golden/determinism test.
var cheapIDs = []string{"table1", "table2", "fig2", "fig6", "ext-gradient"}

func renderCheap(t *testing.T, workers int) map[string]string {
	t.Helper()
	out := make(map[string]string, len(cheapIDs))
	for _, id := range cheapIDs {
		text, err := Run(id, workers)
		if err != nil {
			t.Fatalf("Run(%s): %v", id, err)
		}
		out[id] = text
	}
	return out
}

// TestCheapExperimentsDeterministic regenerates the cheap artifacts twice
// sequentially and twice at 8 workers, and requires all four renderings
// to be byte-identical.
func TestCheapExperimentsDeterministic(t *testing.T) {
	seq1 := renderCheap(t, 1)
	seq2 := renderCheap(t, 1)
	par1 := renderCheap(t, 8)
	par2 := renderCheap(t, 8)
	for _, id := range cheapIDs {
		if seq1[id] != seq2[id] {
			t.Errorf("%s: sequential rendering differs across runs", id)
		}
		if par1[id] != par2[id] {
			t.Errorf("%s: parallel rendering differs across runs", id)
		}
		if seq1[id] != par1[id] {
			t.Errorf("%s: parallel rendering differs from sequential", id)
		}
	}
}

// TestFigSubsetParallelMatchesSequential runs the placement and routing
// comparisons — the experiments with real parallel inner loops — on a
// small subset at 1 and at 8 workers and requires byte-identical output.
func TestFigSubsetParallelMatchesSequential(t *testing.T) {
	subset := fig3Subset(t)
	f1, t1 := Fig3On(subset, 1)
	r1 := Fig4On(subset, 1).Render()
	f2, t2 := Fig3On(subset, 8)
	r2 := Fig4On(subset, 8).Render()
	if f1.Render() != f2.Render() {
		t.Error("Fig3 figure differs between 1 and 8 workers")
	}
	if t1.Render() != t2.Render() {
		t.Error("Fig3 companion table differs between 1 and 8 workers")
	}
	if r1 != r2 {
		t.Error("Fig4 table differs between 1 and 8 workers")
	}
}

// TestCheapExperimentsBuildEachBenchmarkOnce asserts the memoization
// contract: regenerating several suite-wide artifacts builds each
// benchmark's device exactly once.
func TestCheapExperimentsBuildEachBenchmarkOnce(t *testing.T) {
	bench.ResetBuildCache()
	defer bench.ResetBuildCache()
	renderCheap(t, 4)
	renderCheap(t, 4)
	for _, name := range bench.Names() {
		if n := bench.BuildCount(name); n != 1 {
			t.Errorf("%s: generator ran %d times, want 1", name, n)
		}
	}
	if total := bench.TotalBuildCount(); total != len(bench.Names()) {
		t.Errorf("TotalBuildCount = %d, want %d", total, len(bench.Names()))
	}
}
