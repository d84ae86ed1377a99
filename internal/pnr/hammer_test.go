package pnr

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/par"
)

// The determinism hammer pins the parallel PnR contract end to end: for a
// fixed (device, options, seed, replica count), the flow's artifact is
// byte-identical whether the replicas and net searches run wide, run under
// a starved CPU budget, or run strictly sequentially — and not just the
// artifact: the search-effort counters (anneal moves, maze expansions)
// must match too, because the contract is "same computation, reordered",
// not "equivalent result".
//
// Matrix size is calibrated against measured flow cost (the two largest
// synthetics cost 1.8 s and 5.5 s per run):
//
//   - default `go test`: small/medium devices, replicas {1,2,4,8}
//   - `-short` (make hammer / make check, under -race): small devices,
//     replicas {1,4}
//   - PARCHMINT_HAMMER_FULL=1 (make hammer-full): every bench device,
//     replicas {1,2,4,8}
const hammerFullEnv = "PARCHMINT_HAMMER_FULL"

// hammerPrint is the identity a flow run is reduced to for comparison.
// Device bytes carry the placement origins and every routed path; the
// counters pin that the parallel schedules performed the same search, not
// merely an equally good one.
type hammerPrint struct {
	Device     json.RawMessage `json:"device"`
	Moves      int             `json:"moves"`
	Expansions int             `json:"expansions"`
	Routed     int             `json:"routed"`
	Length     int64           `json:"length"`
}

// hammerRun executes one flow and fingerprints it.
func hammerRun(t *testing.T, ctx context.Context, d *core.Device, opts Options) []byte {
	t.Helper()
	res, err := RunContext(ctx, d, opts)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	dev, err := core.Marshal(res.Device)
	if err != nil {
		t.Fatalf("marshal device: %v", err)
	}
	fp, err := json.Marshal(hammerPrint{
		Device:     dev,
		Moves:      res.Placement.Moves,
		Expansions: res.RouteReport.TotalExpansions(),
		Routed:     res.RouteReport.Routed(),
		Length:     res.RouteReport.TotalLength(),
	})
	if err != nil {
		t.Fatalf("marshal fingerprint: %v", err)
	}
	return fp
}

// drainedContext returns a context whose CPU budget has zero free tokens,
// which forces every parallel section in the flow down to width 1: the
// replica loop and the net searches run on the calling goroutine in plain
// program order. This is the sequential golden schedule.
func drainedContext(t *testing.T) context.Context {
	t.Helper()
	b := par.NewBudget(1)
	if b.TryAcquire(1) != 1 {
		t.Fatal("could not drain budget")
	}
	t.Cleanup(func() { b.Release(1) })
	return par.ContextWithBudget(context.Background(), b)
}

// hammerVariant is one parallel schedule that must reproduce the golden.
type hammerVariant struct {
	name string
	// budgetCap sizes the context budget: 0 = no budget (full width),
	// otherwise a budget with budgetCap-1 extra tokens.
	budgetCap int
	// runs repeats the variant to catch scheduling-dependent flakiness.
	runs int
}

func (v hammerVariant) context() context.Context {
	if v.budgetCap <= 0 {
		return context.Background()
	}
	return par.ContextWithBudget(context.Background(), par.NewBudget(v.budgetCap-1))
}

// hammerMatrix picks the device list, replica counts, and variants for the
// current test mode.
func hammerMatrix(t *testing.T) (devices []string, reps []int, variants []hammerVariant) {
	t.Helper()
	variants = []hammerVariant{
		{name: "wide", budgetCap: 0, runs: 2},
		{name: "budget2", budgetCap: 2, runs: 1},
	}
	switch {
	case os.Getenv(hammerFullEnv) != "":
		for _, b := range bench.Suite() {
			devices = append(devices, b.Name)
		}
		reps = []int{1, 2, 4, 8}
	case testing.Short():
		devices = []string{"rotary_pcr", "aquaflex_3b", "hiv_diagnostics"}
		reps = []int{1, 4}
		variants[0].runs = 1 // both schedules, one run each
	default:
		devices = []string{
			"rotary_pcr", "hiv_diagnostics", "aquaflex_3b",
			"molecular_gradients", "aquaflex_5a", "planar_synthetic_1",
		}
		reps = []int{1, 2, 4, 8}
	}
	return devices, reps, variants
}

// TestDeterminismHammer runs the matrix: for each device and replica
// count, compute the sequential golden under a drained budget, then
// demand that every parallel schedule — full-width replicas, a starved
// two-slot budget, repeated runs — reproduces it byte for byte, counters
// included.
func TestDeterminismHammer(t *testing.T) {
	devices, reps, variants := hammerMatrix(t)
	for _, name := range devices {
		d := device(t, name)
		for _, n := range reps {
			t.Run(fmt.Sprintf("%s/replicas=%d", name, n), func(t *testing.T) {
				t.Parallel()
				opts := NewOptions(WithSeed(1), WithReplicas(n))
				golden := hammerRun(t, drainedContext(t), d, opts)
				for _, v := range variants {
					for run := 0; run < v.runs; run++ {
						got := hammerRun(t, v.context(), d, opts)
						if !bytes.Equal(got, golden) {
							t.Errorf("%s run %d diverged from sequential golden\n got: %.200s\nwant: %.200s",
								v.name, run, got, golden)
						}
					}
				}
			})
		}
	}
}
