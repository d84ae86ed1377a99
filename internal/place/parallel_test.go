package place

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// placementBytes renders the determinism-relevant surface of a placement:
// the origin map (json.Marshal sorts map keys, so the encoding is
// canonical), the die, and the move counter.
func placementBytes(t *testing.T, p *Placement) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Origins any
		Die     any
		Moves   int
	}{p.Origins, p.Die, p.Moves})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestReplicasProduceLegalPlacement(t *testing.T) {
	d := benchDevice(t, "aquaflex_3b")
	p, err := Annealer{}.Place(context.Background(), d, Options{Seed: 7, Replicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckLegal(p); err != nil {
		t.Fatal(err)
	}
	m := Evaluate(p)
	if m.Placed != len(d.Components) {
		t.Errorf("placed %d of %d", m.Placed, len(d.Components))
	}
}

// TestReplicasDeterministicAcrossWorkerWidths is the core of the
// determinism contract for parallel tempering: the winning placement is a
// pure function of (device, options, seed, N) — the worker width the
// replica loop runs at must never show in the artifact. Width 1 runs every
// replica on the calling goroutine in plain program order, so equality
// with it proves scheduling independence.
func TestReplicasDeterministicAcrossWorkerWidths(t *testing.T) {
	d := benchDevice(t, "aquaflex_3b")
	opts := Options{Seed: 11, Replicas: 4}

	golden, err := anneal(context.Background(), d, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := placementBytes(t, golden)

	for _, workers := range []int{2, 3, 8} {
		p, err := anneal(context.Background(), d, opts, workers)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if got := placementBytes(t, p); !bytes.Equal(got, want) {
			t.Errorf("workers %d: placement differs from the sequential run", workers)
		}
	}
}

// TestReplicasRepeatedRunsIdentical re-runs the same multi-replica
// schedule and demands byte-identical artifacts — the repeated-run half
// of the determinism hammer, at unit scope.
func TestReplicasRepeatedRunsIdentical(t *testing.T) {
	d := benchDevice(t, "molecular_gradients")
	opts := Options{Seed: 3, Replicas: 2}
	first, err := Annealer{}.Place(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := placementBytes(t, first)
	for run := 1; run < 3; run++ {
		p, err := Annealer{}.Place(context.Background(), d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := placementBytes(t, p); !bytes.Equal(got, want) {
			t.Fatalf("run %d differs from run 0", run)
		}
	}
}

// TestReplicasOneIsSequentialSchedule pins that Replicas values below 2
// select the classic single-replica schedule exactly, so existing golden
// artifacts cannot shift.
func TestReplicasOneIsSequentialSchedule(t *testing.T) {
	d := benchDevice(t, "planar_synthetic_1")
	base, err := Annealer{}.Place(context.Background(), d, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, -3} {
		p, err := Annealer{}.Place(context.Background(), d, Options{Seed: 5, Replicas: n})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(placementBytes(t, p), placementBytes(t, base)) {
			t.Errorf("Replicas=%d does not match the sequential schedule", n)
		}
	}
}

// TestReplicasKeepMoveBudget pins that N replicas split — not multiply —
// the per-level move budget: total proposed moves match the sequential
// schedule, keeping the Moves counter comparable across N.
func TestReplicasKeepMoveBudget(t *testing.T) {
	d := benchDevice(t, "aquaflex_3b")
	seq, err := Annealer{}.Place(context.Background(), d, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Replica ladders calibrate their own starting temperature, so level
	// counts (and with them total moves) may differ between N — but across
	// worker widths at fixed N they cannot.
	if seq.Moves <= 0 {
		t.Fatalf("sequential schedule reports %d moves", seq.Moves)
	}
	par4, err := Annealer{}.Place(context.Background(), d, Options{Seed: 9, Replicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par4.Moves <= 0 {
		t.Fatalf("replica schedule reports %d moves", par4.Moves)
	}
	movesPerTemp := 10 * len(d.Components) // the annealer's moves per level
	if par4.Moves%movesPerTemp != 0 {
		t.Errorf("replica schedule moves %d not a whole number of levels (movesPerTemp %d)",
			par4.Moves, movesPerTemp)
	}
}

func TestReplicaSeedsDistinct(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 16; i++ {
		s := replicaSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("replicas %d and %d derived the same seed %#x", prev, i, s)
		}
		seen[s] = i
	}
	if replicaSeed(1, 0) == replicaSeed(2, 0) {
		t.Error("different base seeds derived the same replica seed")
	}
}

// TestAnnealNoMapOrderPinned is the map-iteration audit's pin: the anneal
// state is built by iterating the device's Components and Connections
// slices (never the compIdx or Origins maps), so repeated runs must be
// byte-identical. If someone later introduces a range over a map into
// state construction or materialization, the per-run map seed makes this
// fail within a few repetitions.
func TestAnnealNoMapOrderPinned(t *testing.T) {
	for _, devName := range []string{"aquaflex_3b", "rotary_pcr"} {
		d := benchDevice(t, devName)
		var want []byte
		for run := 0; run < 5; run++ {
			p, err := Annealer{}.Place(context.Background(), d, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			got := placementBytes(t, p)
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: run %d differs from run 0 — map-order leak in the annealer", devName, run)
			}
		}
	}
}
