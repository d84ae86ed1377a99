// Package experiments regenerates every table and figure of the paper's
// evaluation from the systems in this repository. Each experiment returns
// a renderable artifact (stats.Table or stats.Figure) so the same code
// backs the parchmint-bench command, the testing.B benchmarks, and
// EXPERIMENTS.md. The experiment IDs follow DESIGN.md's per-experiment
// index.
//
// Every experiment takes the worker count of its parallel loops as an
// argument, and its bytes never depend on it: every randomized stage is
// seeded by the fixed experiment Seed (or a par.DeriveSeed of it), never
// by scheduling order, and every parallel loop writes into slots indexed
// by task position. The determinism tests pin this.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mint"
	"repro/internal/mutate"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/validate"
)

// Seed is the fixed seed all randomized experiment stages use, so every
// regeneration of a table or figure is byte-identical.
const Seed = 2018 // the paper's publication year

// Table1 characterizes the benchmark suite: the per-device size and
// topology statistics of the paper's suite-overview table.
func Table1() *stats.Table {
	t := stats.NewTable(
		"Table 1: ParchMint benchmark suite characterization",
		"benchmark", "class", "layers", "components", "connections",
		"io-ports", "valves+pumps", "multi-sink", "avg-deg", "max-deg", "diameter",
	)
	for _, b := range bench.Suite() {
		d := b.Device()
		p := stats.ProfileDevice(d, string(b.Class))
		t.AddRow(p.Name, p.Class, stats.Itoa(p.Layers), stats.Itoa(p.Components),
			stats.Itoa(p.Connections), stats.Itoa(p.Ports), stats.Itoa(p.Valves),
			stats.Itoa(p.MultiSink), stats.F2(p.AvgDegree), stats.Itoa(p.MaxDegree),
			stats.Itoa(p.Diameter))
	}
	return t
}

// Table2 reports the component entity distribution of each benchmark.
func Table2() *stats.Table {
	suite := bench.Suite()
	// Column per entity actually present in the suite, in vocabulary order.
	present := map[string]bool{}
	devices := make([]*core.Device, len(suite))
	for i, b := range suite {
		devices[i] = b.Device()
		for _, c := range devices[i].Components {
			present[c.Entity] = true
		}
	}
	var entities []string
	for _, e := range core.KnownEntities() {
		if present[e] {
			entities = append(entities, e)
		}
	}
	cols := append([]string{"benchmark"}, entities...)
	t := stats.NewTable("Table 2: component entity distribution", cols...)
	for i, b := range suite {
		row := []string{b.Name}
		for _, e := range entities {
			row = append(row, stats.Itoa(devices[i].CountEntity(e)))
		}
		t.AddRow(row...)
	}
	return t
}

// Table3Trials is the per-class injection count for Table 3.
const Table3Trials = 25

// Table3 measures validator coverage: for every mutation class, the
// fraction of injections (across all benchmarks and seeds) the expected
// rule detects. Each class's per-benchmark sweeps run on workers
// goroutines.
func Table3(workers int) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Table 3: validator fault-injection coverage (%d seeds x 12 benchmarks)", Table3Trials),
		"mutation-class", "expected-rule", "applicable", "detected", "rate",
	)
	suite := bench.Suite()
	for _, m := range mutate.Classes() {
		m := m
		// One injection sweep per benchmark, fanned out on the worker
		// pool; per-benchmark tallies land in slots indexed by suite
		// position, so the totals are scheduling-independent.
		type tally struct{ applicable, detected int }
		tallies := make([]tally, len(suite))
		par.ForEach(workers, len(suite), func(i int) {
			d := suite[i].Device()
			for seed := uint64(0); seed < Table3Trials; seed++ {
				res := mutate.Trial(d, m, Seed+seed)
				if res.Applicable {
					tallies[i].applicable++
					if res.Detected {
						tallies[i].detected++
					}
				}
			}
		})
		applicable, detected := 0, 0
		for _, c := range tallies {
			applicable += c.applicable
			detected += c.detected
		}
		rate := 1.0
		if applicable > 0 {
			rate = float64(detected) / float64(applicable)
		}
		t.AddRow(string(m.Class), string(m.Expect),
			stats.Itoa(applicable), stats.Itoa(detected), stats.Pct(rate))
	}
	return t
}

// Fig2 is the netlist degree distribution across the whole suite: one
// series per class, x = degree, y = component count.
func Fig2() *stats.Figure {
	f := &stats.Figure{
		Title:  "Fig 2: component degree distribution across the suite",
		XLabel: "degree",
		YLabel: "components",
	}
	hist := map[string]map[int]int{}
	for _, b := range bench.Suite() {
		g := netlist.Build(b.Device())
		class := string(b.Class)
		if hist[class] == nil {
			hist[class] = map[int]int{}
		}
		for deg, n := range g.Degrees().Histogram {
			hist[class][deg] += n
		}
	}
	for _, class := range []string{string(bench.Assay), string(bench.Synthetic)} {
		h := hist[class]
		degrees := make([]int, 0, len(h))
		for d := range h {
			degrees = append(degrees, d)
		}
		sort.Ints(degrees)
		s := stats.Series{Name: class}
		for _, d := range degrees {
			s.X = append(s.X, float64(d))
			s.Y = append(s.Y, float64(h[d]))
		}
		f.Add(s)
	}
	return f
}

// Fig3On compares placement engines on the given benchmarks, one per
// worker: HPWL normalized to the greedy baseline (series per engine) plus
// an absolute-area table companion. x indexes benchmarks in the given
// order; the "fig3" artifact runs it on the whole suite.
func Fig3On(benchmarks []bench.Benchmark, workers int) (*stats.Figure, *stats.Table) {
	f := &stats.Figure{
		Title:  "Fig 3: placement quality, HPWL normalized to greedy baseline",
		XLabel: "benchmark index (suite order)",
		YLabel: "HPWL / greedy HPWL",
	}
	t := stats.NewTable(
		"Fig 3 companion: absolute placement metrics",
		"benchmark", "engine", "hpwl(um)", "area(mm2)",
	)
	engines := place.Engines()
	series := make([]stats.Series, len(engines))
	for i, eng := range engines {
		series[i].Name = eng.Name()
	}
	// Each benchmark's engine comparison is independent; fan out on the
	// worker pool and assemble series points and table rows in benchmark
	// order afterwards, so the artifact bytes never depend on scheduling.
	perBench := make([][]place.Metrics, len(benchmarks))
	par.ForEach(workers, len(benchmarks), func(bi int) {
		b := benchmarks[bi]
		d := b.Device()
		perBench[bi] = make([]place.Metrics, len(engines))
		for ei, eng := range engines {
			var p *place.Placement
			if _, isAnneal := eng.(place.Annealer); isAnneal {
				p = annealedPlacement(b)
			} else {
				var err error
				p, err = eng.Place(context.Background(), d, place.NewOptions(place.WithSeed(Seed)))
				if err != nil {
					panic(fmt.Sprintf("experiments: placement %s/%s: %v", b.Name, eng.Name(), err))
				}
			}
			perBench[bi][ei] = place.Evaluate(p)
		}
	})
	for bi, b := range benchmarks {
		greedyHPWL := perBench[bi][0].HPWL
		for ei, eng := range engines {
			m := perBench[bi][ei]
			norm := 1.0
			if greedyHPWL > 0 {
				norm = float64(m.HPWL) / float64(greedyHPWL)
			}
			series[ei].X = append(series[ei].X, float64(bi))
			series[ei].Y = append(series[ei].Y, norm)
			t.AddRow(b.Name, eng.Name(), stats.I64(m.HPWL),
				stats.F2(float64(m.Area)/1e6))
		}
	}
	for _, s := range series {
		f.Add(s)
	}
	return f, t
}

// Fig4On compares routing engines on the given benchmarks (on the
// annealed placement), one per worker: completion rate, total channel
// length, and node expansions. The "fig4" artifact runs it on the whole
// suite.
func Fig4On(benchmarks []bench.Benchmark, workers int) *stats.Table {
	t := stats.NewTable(
		"Fig 4: routing quality per engine (annealed placements)",
		"benchmark", "router", "routed", "total", "completion",
		"length(um)", "expansions",
	)
	// Route every benchmark on its memoized annealed placement (shared
	// with Fig 3), fanned out per benchmark; rows are emitted in benchmark
	// order afterwards.
	routers := route.Engines()
	reports := make([][]*route.Report, len(benchmarks))
	par.ForEach(workers, len(benchmarks), func(bi int) {
		b := benchmarks[bi]
		p := annealedPlacement(b)
		reports[bi] = make([]*route.Report, len(routers))
		for ri, router := range routers {
			report, err := route.RouteAll(context.Background(), p, router, route.Options{})
			if err != nil {
				panic(fmt.Sprintf("experiments: routing %s/%s: %v", b.Name, router.Name(), err))
			}
			reports[bi][ri] = report
		}
	})
	for bi, b := range benchmarks {
		for ri, router := range routers {
			report := reports[bi][ri]
			t.AddRow(b.Name, router.Name(),
				stats.Itoa(report.Routed()), stats.Itoa(report.Total()),
				stats.Pct(report.CompletionRate()),
				stats.I64(report.TotalLength()),
				stats.Itoa(report.TotalExpansions()))
		}
	}
	return t
}

// annealCache memoizes the annealed placement each benchmark gets under
// the experiment seed. Fig 3 (engine comparison) and Fig 4 (routing on the
// annealed placement) both need it; annealing is the harness's most
// expensive stage, so computing it once per benchmark roughly halves a
// full regeneration. Placements are read-only downstream (evaluation and
// routing never mutate them).
var annealCache = struct {
	mu      sync.Mutex
	entries map[string]*annealEntry
}{entries: make(map[string]*annealEntry)}

type annealEntry struct {
	once sync.Once
	p    *place.Placement
}

// annealedPlacement returns the benchmark's annealed placement under the
// experiment seed, computing it at most once per process.
func annealedPlacement(b bench.Benchmark) *place.Placement {
	annealCache.mu.Lock()
	e, ok := annealCache.entries[b.Name]
	if !ok {
		e = &annealEntry{}
		annealCache.entries[b.Name] = e
	}
	annealCache.mu.Unlock()
	e.once.Do(func() {
		p, err := (place.Annealer{}).Place(context.Background(), b.Device(), place.NewOptions(place.WithSeed(Seed)))
		if err != nil {
			panic(fmt.Sprintf("experiments: placement %s: %v", b.Name, err))
		}
		e.p = p
	})
	return e.p
}

// Fig5Points is the number of sweep sizes in the runtime-scaling figure:
// 10, 20, 40, 80, 160 components.
const Fig5Points = 5

// Fig5 measures pipeline cost scaling against netlist size on a synthetic
// sweep doubling from 10 components. Cost is reported in deterministic
// work units per stage — parse: canonical JSON bytes; validate: netlist
// elements examined; place: annealing moves proposed; route: search-node
// expansions — so the figure is byte-reproducible across machines, runs,
// and worker counts, and can sit in the golden artifact set. The
// wall-clock equivalent is TimingTable, the "timing" pseudo-experiment
// (parchmint-bench -exp timing), which is deliberately excluded from it.
// The sweep points run on workers goroutines.
func Fig5(workers int) *stats.Figure {
	f := &stats.Figure{
		Title:  "Fig 5: pipeline work scaling on the synthetic sweep",
		XLabel: "components",
		YLabel: "work units (parse: bytes, validate: elements, place: moves, route: expansions)",
	}
	pts := bench.Sweep(10, Fig5Points, Seed)
	type point struct {
		x, parse, validate, place, route float64
	}
	points := make([]point, len(pts))
	par.ForEach(workers, len(pts), func(i int) {
		pt := pts[i]
		x := float64(pt.Device.Stats().Components)
		data, err := core.Marshal(pt.Device)
		if err != nil {
			panic(err)
		}
		if _, err := core.Unmarshal(data); err != nil {
			panic(err)
		}
		if vr := validate.Validate(pt.Device); !vr.OK() {
			panic(fmt.Sprintf("experiments: sweep device %d invalid: %s", i, vr))
		}
		placed, err := (place.Annealer{}).Place(context.Background(), pt.Device, place.NewOptions(place.WithSeed(Seed)))
		if err != nil {
			panic(err)
		}
		report, err := route.RouteAll(context.Background(), placed, route.AStar{}, route.Options{})
		if err != nil {
			panic(err)
		}
		points[i] = point{
			x:        x,
			parse:    float64(len(data)),
			validate: float64(elementCount(pt.Device)),
			place:    float64(placed.Moves),
			route:    float64(report.TotalExpansions()),
		}
	})
	parse := stats.Series{Name: "parse"}
	val := stats.Series{Name: "validate"}
	pl := stats.Series{Name: "place"}
	rt := stats.Series{Name: "route"}
	for _, p := range points {
		parse.X, parse.Y = append(parse.X, p.x), append(parse.Y, p.parse)
		val.X, val.Y = append(val.X, p.x), append(val.Y, p.validate)
		pl.X, pl.Y = append(pl.X, p.x), append(pl.Y, p.place)
		rt.X, rt.Y = append(rt.X, p.x), append(rt.Y, p.route)
	}
	f.Add(parse)
	f.Add(val)
	f.Add(pl)
	f.Add(rt)
	return f
}

// elementCount is the number of netlist elements a validation pass
// examines: layers, components and their ports, connections and their
// endpoints, and features — the size driver of the validator's linear
// rules.
func elementCount(d *core.Device) int {
	n := len(d.Layers) + len(d.Components) + len(d.Connections) + len(d.Features)
	for i := range d.Components {
		n += len(d.Components[i].Ports)
	}
	for i := range d.Connections {
		n += 1 + len(d.Connections[i].Sinks)
	}
	return n
}

// Fig6 measures interchange fidelity across the suite: JSON round-trip
// losslessness and size, and MINT conversion losslessness (assay
// benchmarks use multi-layer valves and fanout outside the MINT subset, so
// their conversions degrade with notes; synthetics convert cleanly).
func Fig6() *stats.Table {
	t := stats.NewTable(
		"Fig 6: interchange fidelity per benchmark",
		"benchmark", "json-bytes", "json-lossless", "mint-lossless", "mint-notes",
	)
	for _, b := range bench.Suite() {
		d := b.Device()
		data, err := core.Marshal(d)
		if err != nil {
			panic(err)
		}
		back, err := core.Unmarshal(data)
		if err != nil {
			panic(err)
		}
		jsonLossless := core.Equal(d, back)

		mintLossless := false
		notes := 0
		if f, fid, err := mint.FromDevice(d); err == nil {
			notes = len(fid.Notes)
			if d2, fid2, err := mint.ToDevice(f); err == nil {
				notes += len(fid2.Notes)
				c1, c2 := d.Clone(), d2
				c1.Canonicalize()
				c2.Canonicalize()
				mintLossless = fid.Lossless() && fid2.Lossless() && core.Equal(c1, c2)
			}
		}
		t.AddRow(b.Name, stats.Itoa(len(data)),
			boolCell(jsonLossless), boolCell(mintLossless), stats.Itoa(notes))
	}
	return t
}

func boolCell(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}

// ExtGradient is an extension experiment beyond the paper: the hydraulic
// simulator's dilution profile across the molecular gradient generator's
// six outlets. A correct generator yields a monotone profile from 1.0 on
// the species side to 0.0 on the buffer side — functional evidence that
// an exchanged benchmark behaves like the device it models.
func ExtGradient() *stats.Figure {
	f := &stats.Figure{
		Title:  "Ext: simulated dilution profile of molecular_gradients",
		XLabel: "outlet index",
		YLabel: "steady-state concentration",
	}
	b, err := bench.ByName("molecular_gradients")
	if err != nil {
		panic(err)
	}
	d := b.Device()
	network, err := sim.Build(d, sim.Options{})
	if err != nil {
		panic(fmt.Sprintf("experiments: gradient network: %v", err))
	}
	bcs := []sim.BC{
		{Node: "inA.port1", Pressure: 10000},
		{Node: "inB.port1", Pressure: 10000},
	}
	for i := 1; i <= 6; i++ {
		bcs = append(bcs, sim.BC{Node: sim.NodeID(fmt.Sprintf("out%d.port1", i))})
	}
	sol, err := network.Solve(bcs)
	if err != nil {
		panic(fmt.Sprintf("experiments: gradient solve: %v", err))
	}
	conc, err := network.Concentrations(sol, map[sim.NodeID]float64{
		"inA.port1": 1,
		"inB.port1": 0,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: gradient transport: %v", err))
	}
	s := stats.Series{Name: "profile"}
	for i := 1; i <= 6; i++ {
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, conc[sim.NodeID(fmt.Sprintf("out%d.port1", i))])
	}
	f.Add(s)
	return f
}

// Artifact is one rendered experiment output.
type Artifact struct {
	ID   string
	Text string
}

// Info pairs an experiment ID with its one-line title.
type Info struct {
	ID    string
	Title string
}

// registry lists every experiment in DESIGN.md order — the paper's eight
// plus the extension experiments — with the function that renders it at
// a given worker count.
var registry = []struct {
	Info
	render func(workers int) string
}{
	{Info{"table1", "benchmark suite characterization"}, func(int) string { return Table1().Render() }},
	{Info{"table2", "component entity distribution"}, func(int) string { return Table2().Render() }},
	{Info{"table3", "validator fault-injection coverage"}, func(w int) string { return Table3(w).Render() }},
	{Info{"fig2", "component degree distribution across the suite"}, func(int) string { return Fig2().Render() }},
	{Info{"fig3", "placement quality per engine, normalized to greedy"}, func(w int) string {
		f, t := Fig3On(bench.Suite(), w)
		return f.Render() + "\n" + t.Render()
	}},
	{Info{"fig4", "routing quality per engine on annealed placements"}, func(w int) string { return Fig4On(bench.Suite(), w).Render() }},
	{Info{"fig5", "pipeline work scaling on the synthetic sweep"}, func(w int) string { return Fig5(w).Render() }},
	{Info{"fig6", "interchange fidelity per benchmark"}, func(int) string { return Fig6().Render() }},
	{Info{"ext-gradient", "simulated dilution profile of molecular_gradients"}, func(int) string { return ExtGradient().Render() }},
}

// Describe lists every experiment with its one-line title, in DESIGN.md
// order.
func Describe() []Info {
	out := make([]Info, len(registry))
	for i, e := range registry {
		out[i] = e.Info
	}
	return out
}

// IDs lists the experiment identifiers in DESIGN.md order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// Run renders a single experiment by ID, with workers goroutines for its
// parallel loops.
func Run(id string, workers int) (string, error) {
	for _, e := range registry {
		if e.ID == id {
			return e.render(workers), nil
		}
	}
	return "", fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
}

// All renders every experiment in DESIGN.md order. The experiments run
// concurrently on workers goroutines, and each one's inner loops fan out
// at the same width; the bytes are the same at every worker count.
func All(workers int) []Artifact {
	arts := make([]Artifact, len(registry))
	par.ForEach(workers, len(registry), func(i int) {
		e := registry[i]
		arts[i] = Artifact{ID: e.ID, Text: e.render(workers)}
	})
	return arts
}
