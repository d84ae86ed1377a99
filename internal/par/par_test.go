package par

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestDeriveSeedDeterministicAndSeparated(t *testing.T) {
	a := DeriveSeed(2018, "table1")
	if a != DeriveSeed(2018, "table1") {
		t.Error("same (base, id) produced different seeds")
	}
	seen := map[uint64]string{}
	for _, id := range []string{"table1", "table2", "table3", "fig2", "fig3", "fig4", "fig5", "fig6", "ext-gradient", ""} {
		s := DeriveSeed(2018, id)
		if prev, dup := seen[s]; dup {
			t.Errorf("seed collision between %q and %q", prev, id)
		}
		seen[s] = id
	}
	if DeriveSeed(2018, "table1") == DeriveSeed(2019, "table1") {
		t.Error("base seed does not separate")
	}
}

func TestForEachMatchesSequential(t *testing.T) {
	seq := make([]int, 100)
	for i := range seq {
		seq[i] = 3 * i
	}
	for _, workers := range []int{-1, 0, 1, 2, 7} {
		got := make([]int, 100)
		ForEach(workers, 100, func(i int) { got[i] = 3 * i })
		for i := range got {
			if got[i] != seq[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], seq[i])
			}
		}
	}
}

// TestForEachRunsAllTasksOrderIndependent pins the slot contract: every
// iteration runs exactly once and its result lands in its own index,
// whatever the worker count or completion order.
func TestForEachRunsAllTasksOrderIndependent(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		results := make([]int, 50)
		var ran atomic.Int64
		ForEach(workers, 50, func(i int) {
			results[i] = i * i
			ran.Add(1)
		})
		if ran.Load() != 50 {
			t.Fatalf("workers=%d: ran %d/50 iterations", workers, ran.Load())
		}
		for i, v := range results {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, v)
			}
		}
	}
}

func TestForEachPropagatesPanics(t *testing.T) {
	var ran atomic.Int64
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if !strings.Contains(r.(string), "boom") || !strings.Contains(r.(string), "iteration 1") {
			t.Errorf("panic value %q lacks iteration context", r)
		}
		// A panicking iteration stops nothing else.
		if ran.Load() != 3 {
			t.Errorf("ran %d/3 healthy iterations", ran.Load())
		}
	}()
	ForEach(2, 4, func(i int) {
		if i == 1 {
			panic("boom")
		}
		ran.Add(1)
	})
}
