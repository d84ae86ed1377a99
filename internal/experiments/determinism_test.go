package experiments

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/par"
)

// cheapIDs are the experiments fast enough to regenerate several times in
// a unit test. The full artifact set (including the annealing-heavy
// figures) is covered by the root-level golden/determinism test.
var cheapIDs = []string{"table1", "table2", "fig2", "fig6", "ext-gradient"}

func renderCheap(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string, len(cheapIDs))
	for _, id := range cheapIDs {
		text, err := Run(id)
		if err != nil {
			t.Fatalf("Run(%s): %v", id, err)
		}
		out[id] = text
	}
	return out
}

// TestCheapExperimentsDeterministic regenerates the cheap artifacts twice
// sequentially and twice with the worker-pool parallelism raised, and
// requires all four renderings to be byte-identical.
func TestCheapExperimentsDeterministic(t *testing.T) {
	prev := par.SetParallelism(1)
	defer par.SetParallelism(prev)
	seq1 := renderCheap(t)
	seq2 := renderCheap(t)
	par.SetParallelism(8)
	par1 := renderCheap(t)
	par2 := renderCheap(t)
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
	prev := par.SetParallelism(1)
	defer par.SetParallelism(prev)
	f1, t1 := Fig3On(subset)
	r1 := Fig4On(subset).Render()
	par.SetParallelism(8)
	f2, t2 := Fig3On(subset)
	r2 := Fig4On(subset).Render()
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
	prev := par.SetParallelism(4)
	defer par.SetParallelism(prev)
	renderCheap(t)
	renderCheap(t)
	for _, name := range bench.Names() {
		if n := bench.BuildCount(name); n != 1 {
			t.Errorf("%s: generator ran %d times, want 1", name, n)
		}
	}
	if total := bench.TotalBuildCount(); total != len(bench.Names()) {
		t.Errorf("TotalBuildCount = %d, want %d", total, len(bench.Names()))
	}
}
