package pnr

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// The determinism hammer pins the parallel PnR contract end to end: for a
// fixed (device, options, seed, replica count), the flow's artifact is
// byte-identical whether the replicas run at full width (GOMAXPROCS 8),
// on two Ps, or strictly sequentially on one — and not just the artifact:
// the search-effort counters (anneal moves, maze expansions) must match
// too, because the contract is "same computation, reordered", not
// "equivalent result".
//
// The annealer sizes its replica loop by runtime.GOMAXPROCS, so each
// schedule is selected by setting it; GOMAXPROCS may exceed NumCPU, so the
// wide schedule gives every replica its own goroutine on any machine.
// GOMAXPROCS is process-wide, so the subtests run one at a time.
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

// hammerRun executes one flow with GOMAXPROCS set to procs and
// fingerprints it.
func hammerRun(t *testing.T, procs int, d *core.Device, opts Options) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	res, err := RunContext(context.Background(), d, opts)
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

// hammerVariant is one parallel schedule that must reproduce the golden.
type hammerVariant struct {
	name string
	// procs is the GOMAXPROCS the variant runs at, hence its replica
	// width is min(replicas, procs).
	procs int
	// runs repeats the variant to catch scheduling-dependent flakiness.
	runs int
}

// hammerMatrix picks the device list, replica counts, and variants for the
// current test mode.
func hammerMatrix(t *testing.T) (devices []string, reps []int, variants []hammerVariant) {
	t.Helper()
	variants = []hammerVariant{
		{name: "wide", procs: 8, runs: 2}, // above every replica count
		{name: "procs2", procs: 2, runs: 1},
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
// count, compute the sequential golden at GOMAXPROCS=1, then demand that
// every parallel schedule — full-width replicas, two Ps, repeated runs —
// reproduces it byte for byte, counters included.
func TestDeterminismHammer(t *testing.T) {
	devices, reps, variants := hammerMatrix(t)
	for _, name := range devices {
		d := device(t, name)
		for _, n := range reps {
			t.Run(fmt.Sprintf("%s/replicas=%d", name, n), func(t *testing.T) {
				opts := NewOptions(WithSeed(1), WithReplicas(n))
				golden := hammerRun(t, 1, d, opts)
				for _, v := range variants {
					for run := 0; run < v.runs; run++ {
						got := hammerRun(t, v.procs, d, opts)
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
