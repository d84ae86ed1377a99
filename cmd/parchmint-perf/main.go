// Command parchmint-perf measures the PnR hot paths — annealing
// placement, the three maze-router searches, full-device routing, and the
// end-to-end flow — and writes the numbers to a JSON snapshot
// (BENCH_pnr.json). The snapshot is the repository's perf trajectory:
// each PR that touches a hot path regenerates it, and the committed
// "baseline" block preserves the numbers the current optimization round
// started from.
//
// Usage:
//
//	parchmint-perf -o BENCH_pnr.json          # full measurement
//	parchmint-perf -quick -o /tmp/smoke.json  # one iteration per kernel
//	parchmint-perf -check BENCH_pnr.json      # validate an existing snapshot
//	parchmint-perf -check-trace trace.json -trace-spans "pnr.flow,place.anneal"
//	parchmint-perf -suite serve -o BENCH_serve.json  # HTTP serving-tier kernels
//
// An existing output file's "baseline" block is preserved across
// regenerations; -baseline FILE installs the "results" of another
// snapshot as the baseline instead. -check-trace validates that a file
// is well-formed Chrome trace_event JSON containing every span named in
// -trace-spans (the make trace-smoke assertion).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/pnr"
	"repro/internal/route"
)

// Result is one kernel's measurement.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     int64              `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Environment pins the machine context the numbers were measured in, so
// snapshot diffs across machines are recognizable as such. NumReplicas is
// the annealing replica count the parallel-flow kernels ran with — a
// snapshot measured at a different count is a different workload, not a
// regression.
type Environment struct {
	Go          string `json:"go"`
	OS          string `json:"os"`
	Arch        string `json:"arch"`
	NumCPU      int    `json:"num_cpu"`
	NumReplicas int    `json:"num_replicas"`
}

// Snapshot is the BENCH_pnr.json document.
type Snapshot struct {
	Schema      string      `json:"schema"`
	Go          string      `json:"go"`
	Environment Environment `json:"environment"`
	Quick       bool        `json:"quick"`
	Results     []Result    `json:"results"`
	Baseline    []Result    `json:"baseline,omitempty"`
}

const schemaID = "parchmint-perf/v1"

func main() {
	out := flag.String("o", "BENCH_pnr.json", "output snapshot file")
	suite := flag.String("suite", "pnr", "kernel family to measure: pnr (solver hot paths) or serve (HTTP request→response)")
	quick := flag.Bool("quick", false, "one iteration per kernel (CI smoke)")
	baseline := flag.String("baseline", "", "snapshot file whose results become this snapshot's baseline")
	replicas := flag.Int("replicas", 2, "annealing replica count for the paired parallel-flow kernels")
	check := flag.String("check", "", "validate the given snapshot and exit")
	checkTrace := flag.String("check-trace", "", "validate the given Chrome trace_event JSON file and exit")
	traceSpans := flag.String("trace-spans", "", "comma-separated span names -check-trace requires to be present")
	flag.Parse()

	if *check != "" {
		if err := checkSnapshot(*check); err != nil {
			cli.Fatalf("parchmint-perf: %v", err)
		}
		fmt.Printf("parchmint-perf: %s is a well-formed %s snapshot\n", *check, schemaID)
		return
	}
	if *checkTrace != "" {
		if err := checkTraceFile(*checkTrace, *traceSpans); err != nil {
			cli.Fatalf("parchmint-perf: %v", err)
		}
		fmt.Printf("parchmint-perf: %s is a well-formed trace\n", *checkTrace)
		return
	}

	snap := Snapshot{
		Schema: schemaID,
		Go:     runtime.Version(),
		Environment: Environment{
			Go:          runtime.Version(),
			OS:          runtime.GOOS,
			Arch:        runtime.GOARCH,
			NumCPU:      runtime.NumCPU(),
			NumReplicas: *replicas,
		},
		Quick: *quick,
	}
	snap.Baseline = loadBaseline(*baseline, *out)
	var ks []kernel
	switch *suite {
	case "pnr":
		ks = kernels(*replicas)
	case "serve":
		ks = serveKernels()
	default:
		cli.Fatalf("parchmint-perf: unknown suite %q (want pnr or serve)", *suite)
	}
	for _, k := range ks {
		iters := k.iters
		if *quick {
			iters = 1
		}
		snap.Results = append(snap.Results, measure(k, iters))
		fmt.Fprintf(os.Stderr, "parchmint-perf: %-34s %12d ns/op %8d allocs/op\n",
			k.name, snap.Results[len(snap.Results)-1].NsPerOp,
			snap.Results[len(snap.Results)-1].AllocsPerOp)
	}
	if *suite == "pnr" {
		enforcePairs(snap.Results)
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		cli.Fatalf("parchmint-perf: %v", err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		cli.Fatalf("parchmint-perf: %v", err)
	}
}

// loadBaseline resolves the baseline block: an explicit -baseline file's
// results win; otherwise an existing output file's baseline is carried
// forward so regeneration never loses the trajectory anchor.
func loadBaseline(baselineFile, outFile string) []Result {
	if baselineFile != "" {
		var s Snapshot
		if err := readSnapshot(baselineFile, &s); err != nil {
			cli.Fatalf("parchmint-perf: baseline: %v", err)
		}
		return s.Results
	}
	var prev Snapshot
	if err := readSnapshot(outFile, &prev); err == nil {
		return prev.Baseline
	}
	return nil
}

func readSnapshot(path string, s *Snapshot) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, s); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func checkSnapshot(path string) error {
	var s Snapshot
	if err := readSnapshot(path, &s); err != nil {
		return err
	}
	if s.Schema != schemaID {
		return fmt.Errorf("%s: schema %q, want %q", path, s.Schema, schemaID)
	}
	if len(s.Results) == 0 {
		return fmt.Errorf("%s: no results", path)
	}
	for _, r := range s.Results {
		if r.Name == "" || r.Iterations <= 0 || r.NsPerOp <= 0 {
			return fmt.Errorf("%s: malformed result %+v", path, r)
		}
	}
	return nil
}

// checkTraceFile validates a Chrome trace_event JSON file, optionally
// requiring a comma-separated set of span names to be present.
func checkTraceFile(path, spans string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want []string
	for _, s := range strings.Split(spans, ",") {
		if s = strings.TrimSpace(s); s != "" {
			want = append(want, s)
		}
	}
	if err := obs.CheckTrace(data, want...); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// kernel is one measured hot path. fn runs a single operation and returns
// optional work metrics (moves, expansions) for the snapshot.
type kernel struct {
	name  string
	iters int
	fn    func() map[string]float64
}

// measure times iters runs of the kernel and reads allocation deltas from
// runtime.MemStats — the same counters testing.Benchmark reports.
func measure(k kernel, iters int) Result {
	k.fn() // warm caches (device build, arena pool) outside the window
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var metrics map[string]float64
	for i := 0; i < iters; i++ {
		metrics = k.fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return Result{
		Name:        k.name,
		Iterations:  iters,
		NsPerOp:     elapsed.Nanoseconds() / int64(iters),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(iters),
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
		Metrics:     metrics,
	}
}

var perfDevices = []string{"aquaflex_3b", "rotary_pcr", "general_purpose_mfd"}

// jobDevices are the suite devices of the jobs_journal workload's fresh
// pnr jobs.
var jobDevices = []string{"aquaflex_3b", "aquaflex_5a", "chromatin_immunoprecipitation", "hiv_diagnostics", "rotary_pcr"}

func device(name string) *core.Device {
	b, err := bench.ByName(name)
	if err != nil {
		cli.Fatalf("parchmint-perf: %v", err)
	}
	return b.Build()
}

// searchGrid mirrors the congested field grid of the route package's
// BenchmarkSearch: blocked component footprints with channel gaps.
func searchGrid() *geom.Grid {
	g, err := geom.NewGrid(geom.R(0, 0, 16000, 16000), 100)
	if err != nil {
		cli.Fatalf("parchmint-perf: %v", err)
	}
	for row := 10; row < 150; row += 20 {
		for col := 10; col < 150; col += 20 {
			g.BlockRect(geom.R(int64(col)*100, int64(row)*100,
				int64(col+8)*100, int64(row+8)*100))
		}
	}
	return g
}

// pairSuffixSeq/Par name the paired parallel-flow kernels: the same
// (device, seed, replicas) workload measured on one P (GOMAXPROCS=1, the
// strictly sequential schedule) and at full width, where the tempering
// replicas anneal concurrently. The determinism contract says the pair
// performs the identical search, so enforcePairs fails the run if their
// work counters diverge — the perf tool doubles as a determinism check on
// every regeneration.
const (
	pairSuffixSeq = "/seq"
	pairSuffixPar = "/par"
)

// enforcePairs verifies that every seq/par kernel pair reports identical
// work metrics (moves, expansions). A divergence means the parallel
// schedule changed the computation, which no speedup is allowed to buy.
func enforcePairs(results []Result) {
	byName := make(map[string]Result, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}
	for _, r := range results {
		if !strings.HasSuffix(r.Name, pairSuffixSeq) {
			continue
		}
		parName := strings.TrimSuffix(r.Name, pairSuffixSeq) + pairSuffixPar
		p, ok := byName[parName]
		if !ok {
			cli.Fatalf("parchmint-perf: %s has no paired %s kernel", r.Name, parName)
		}
		for key, want := range r.Metrics {
			if got := p.Metrics[key]; got != want {
				cli.Fatalf("parchmint-perf: determinism violation: %s %s=%v but %s %s=%v",
					r.Name, key, want, parName, key, got)
			}
		}
	}
}

// flowMetrics reduces one flow run to its work counters.
func flowMetrics(res *pnr.Result) map[string]float64 {
	return map[string]float64{
		"moves":      float64(res.Placement.Moves),
		"expansions": float64(res.RouteReport.TotalExpansions()),
	}
}

// parallelKernels builds the paired seq/par flow kernels for each perf
// device at the given replica count.
func parallelKernels(replicas int) []kernel {
	var ks []kernel
	for _, name := range perfDevices {
		d := device(name)
		opts := pnr.NewOptions(pnr.WithSeed(1), pnr.WithReplicas(replicas))
		base := fmt.Sprintf("pnr/flow/%s/replicas=%d", name, replicas)
		ks = append(ks,
			kernel{
				name:  base + pairSuffixSeq,
				iters: 3,
				fn: func() map[string]float64 {
					// One P sizes the replica loop to a single worker.
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
					res, err := pnr.RunContext(context.Background(), d, opts)
					if err != nil {
						cli.Fatalf("parchmint-perf: %v", err)
					}
					return flowMetrics(res)
				},
			},
			kernel{
				name:  base + pairSuffixPar,
				iters: 3,
				fn: func() map[string]float64 {
					res, err := pnr.RunContext(context.Background(), d, opts)
					if err != nil {
						cli.Fatalf("parchmint-perf: %v", err)
					}
					return flowMetrics(res)
				},
			})
	}
	return ks
}

func kernels(replicas int) []kernel {
	var ks []kernel
	for _, name := range perfDevices {
		d := device(name)
		ks = append(ks, kernel{
			name:  "place/anneal/" + name,
			iters: 3,
			fn: func() map[string]float64 {
				p, err := (place.Annealer{}).Place(context.Background(), d, place.NewOptions(place.WithSeed(1)))
				if err != nil {
					cli.Fatalf("parchmint-perf: %v", err)
				}
				return map[string]float64{"moves": float64(p.Moves)}
			},
		})
	}
	for _, r := range route.Engines() {
		r := r
		g := searchGrid()
		sources := []geom.Cell{{Col: 0, Row: 0}, {Col: 0, Row: 159}}
		target := geom.Cell{Col: 159, Row: 80}
		ks = append(ks, kernel{
			name:  "route/search/" + r.Name(),
			iters: 50,
			fn: func() map[string]float64 {
				_, exp, ok := r.Search(context.Background(), g, sources, target)
				if !ok {
					cli.Fatalf("parchmint-perf: no path on search grid")
				}
				return map[string]float64{"expansions": float64(exp)}
			},
		})
	}
	for _, name := range perfDevices {
		d := device(name)
		p, err := (place.Greedy{}).Place(context.Background(), d, place.NewOptions())
		if err != nil {
			cli.Fatalf("parchmint-perf: %v", err)
		}
		ks = append(ks, kernel{
			name:  "route/routeall/" + name,
			iters: 5,
			fn: func() map[string]float64 {
				report, err := route.RouteAll(context.Background(), p, route.AStar{}, route.Options{})
				if err != nil {
					cli.Fatalf("parchmint-perf: %v", err)
				}
				return map[string]float64{"expansions": float64(report.TotalExpansions())}
			},
		})
	}
	// The hadlock routeall kernels route the devices whose fresh pnr jobs
	// the jobs_journal loadbench workload runs (greedy placement, hadlock
	// routing), so the kernel that workload measures end to end has an
	// in-process number too.
	for _, name := range jobDevices {
		d := device(name)
		p, err := (place.Greedy{}).Place(context.Background(), d, place.NewOptions())
		if err != nil {
			cli.Fatalf("parchmint-perf: %v", err)
		}
		ks = append(ks, kernel{
			name:  "route/routeall/" + name + "/hadlock",
			iters: 20,
			fn: func() map[string]float64 {
				report, err := route.RouteAll(context.Background(), p, route.Hadlock{}, route.Options{})
				if err != nil {
					cli.Fatalf("parchmint-perf: %v", err)
				}
				return map[string]float64{"expansions": float64(report.TotalExpansions())}
			},
		})
	}
	for _, name := range perfDevices {
		d := device(name)
		ks = append(ks, kernel{
			name:  "pnr/flow/" + name,
			iters: 3,
			fn: func() map[string]float64 {
				res, err := pnr.Run(d, pnr.NewOptions(pnr.WithSeed(1)))
				if err != nil {
					cli.Fatalf("parchmint-perf: %v", err)
				}
				return map[string]float64{"expansions": float64(res.RouteReport.TotalExpansions())}
			},
		})
	}
	ks = append(ks, parallelKernels(replicas)...)
	return ks
}
