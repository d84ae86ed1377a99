// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation (see DESIGN.md's
// per-experiment index), plus ablation benches for the design choices
// DESIGN.md calls out. The full-suite artifacts are regenerated by
// `go run ./cmd/parchmint-bench -exp all`; the heavyweight placement and
// routing benchmarks here run on a fixed representative subset so
// `go test -bench=.` completes in minutes, not hours.
package repro_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/experiments"
	"repro/internal/place"
	"repro/internal/pnr"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/validate"
)

// subset returns the named benchmarks, panicking on unknown names (the
// harness is a fixed artifact).
func subset(names ...string) []bench.Benchmark {
	out := make([]bench.Benchmark, 0, len(names))
	for _, n := range names {
		b, err := bench.ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}

// pnrSubset is the representative slice used by the heavyweight benches:
// one small assay, one control-heavy assay, one mid-size synthetic.
var pnrSubset = []string{"rotary_pcr", "general_purpose_mfd", "planar_synthetic_2"}

// BenchmarkTable1 regenerates the suite characterization table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.Table1(); len(tb.Rows) != 12 {
			b.Fatalf("rows = %d", len(tb.Rows))
		}
	}
}

// BenchmarkTable2 regenerates the entity-distribution table.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.Table2(); len(tb.Rows) != 12 {
			b.Fatalf("rows = %d", len(tb.Rows))
		}
	}
}

// BenchmarkTable3 regenerates the validator fault-injection coverage table.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.Table3(1); len(tb.Rows) != 8 {
			b.Fatalf("rows = %d", len(tb.Rows))
		}
	}
}

// BenchmarkFig2 regenerates the degree-distribution figure.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := experiments.Fig2(); len(f.Series) != 2 {
			b.Fatalf("series = %d", len(f.Series))
		}
	}
}

// BenchmarkFig3 regenerates the placement-quality comparison on the
// representative subset (full suite: parchmint-bench -exp fig3).
func BenchmarkFig3(b *testing.B) {
	s := subset(pnrSubset...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _ := experiments.Fig3On(s, 1)
		if len(f.Series) != 3 {
			b.Fatalf("series = %d", len(f.Series))
		}
	}
}

// BenchmarkFig4 regenerates the routing-quality comparison on the
// representative subset (full suite: parchmint-bench -exp fig4).
func BenchmarkFig4(b *testing.B) {
	s := subset(pnrSubset...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tb := experiments.Fig4On(s, 1); len(tb.Rows) != len(s)*3 {
			b.Fatalf("rows = %d", len(tb.Rows))
		}
	}
}

// BenchmarkFig5 regenerates the runtime-scaling figure.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := experiments.Fig5(1); len(f.Series) != 4 {
			b.Fatalf("series = %d", len(f.Series))
		}
	}
}

// BenchmarkFig6 regenerates the interchange-fidelity table.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.Fig6(); len(tb.Rows) != 12 {
			b.Fatalf("rows = %d", len(tb.Rows))
		}
	}
}

// BenchmarkExtGradient regenerates the extension experiment: the
// simulated dilution profile of the gradient generator.
func BenchmarkExtGradient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.ExtGradient()
		if len(f.Series) != 1 {
			b.Fatalf("series = %d", len(f.Series))
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationNetOrder quantifies the net-ordering choice in routing.
func BenchmarkAblationNetOrder(b *testing.B) {
	d := mustBuild("general_purpose_mfd")
	p := mustPlace(b, d)
	for _, order := range []route.Order{route.OrderShortFirst, route.OrderLongFirst, route.OrderAsGiven} {
		b.Run(string(order), func(b *testing.B) {
			routed := 0
			for i := 0; i < b.N; i++ {
				rep, err := route.RouteAll(context.Background(), p, route.AStar{}, route.Options{Ordering: order})
				if err != nil {
					b.Fatal(err)
				}
				routed = rep.Routed()
			}
			b.ReportMetric(float64(routed), "nets-routed")
		})
	}
}

// BenchmarkAblationCooling quantifies the annealer's cooling-rate choice.
func BenchmarkAblationCooling(b *testing.B) {
	d := mustBuild("aquaflex_5a")
	for _, alpha := range []float64{0.85, 0.95, 0.99} {
		b.Run(coolName(alpha), func(b *testing.B) {
			var hpwl int64
			for i := 0; i < b.N; i++ {
				p, err := (place.Annealer{}).Place(context.Background(), d, place.Options{Seed: 7, CoolingRate: alpha})
				if err != nil {
					b.Fatal(err)
				}
				hpwl = place.Evaluate(p).HPWL
			}
			b.ReportMetric(float64(hpwl), "hpwl-um")
		})
	}
}

func coolName(alpha float64) string {
	switch alpha {
	case 0.85:
		return "alpha=0.85"
	case 0.95:
		return "alpha=0.95"
	default:
		return "alpha=0.99"
	}
}

// BenchmarkAblationRipup quantifies rip-up-and-reroute on vs off.
func BenchmarkAblationRipup(b *testing.B) {
	d := mustBuild("planar_synthetic_2")
	p := mustPlace(b, d)
	for _, cfg := range []struct {
		name   string
		rounds int
	}{{"off", -1}, {"on", 3}} {
		b.Run(cfg.name, func(b *testing.B) {
			routed := 0
			for i := 0; i < b.N; i++ {
				rep, err := route.RouteAll(context.Background(), p, route.AStar{}, route.Options{RipupRounds: cfg.rounds})
				if err != nil {
					b.Fatal(err)
				}
				routed = rep.Routed()
			}
			b.ReportMetric(float64(routed), "nets-routed")
		})
	}
}

// BenchmarkAblationGridRes quantifies the routing grid pitch choice.
func BenchmarkAblationGridRes(b *testing.B) {
	d := mustBuild("rotary_pcr")
	p := mustPlace(b, d)
	for _, pitch := range []int64{50, 100, 200} {
		b.Run(pitchName(pitch), func(b *testing.B) {
			routed := 0
			for i := 0; i < b.N; i++ {
				rep, err := route.RouteAll(context.Background(), p, route.AStar{}, route.Options{GridPitch: pitch})
				if err != nil {
					b.Fatal(err)
				}
				routed = rep.Routed()
			}
			b.ReportMetric(float64(routed), "nets-routed")
		})
	}
}

func pitchName(p int64) string {
	switch p {
	case 50:
		return "pitch=50um"
	case 100:
		return "pitch=100um"
	default:
		return "pitch=200um"
	}
}

// --- Micro-benchmarks of the core substrates ---

// BenchmarkJSONMarshal measures ParchMint serialization throughput.
func BenchmarkJSONMarshal(b *testing.B) {
	d := mustBuild("planar_synthetic_3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Marshal(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJSONUnmarshal measures ParchMint parsing throughput.
func BenchmarkJSONUnmarshal(b *testing.B) {
	data, err := core.Marshal(mustBuild("planar_synthetic_3"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidate measures semantic validation throughput.
func BenchmarkValidate(b *testing.B) {
	d := mustBuild("planar_synthetic_3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := validate.Validate(d); !r.OK() {
			b.Fatal("benchmark device invalid")
		}
	}
}

// BenchmarkSuiteGeneration measures building all twelve benchmarks.
func BenchmarkSuiteGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bm := range bench.Suite() {
			if bm.Build() == nil {
				b.Fatal("nil device")
			}
		}
	}
}

func mustBuild(name string) *core.Device {
	b, err := bench.ByName(name)
	if err != nil {
		panic(err)
	}
	return b.Build()
}

func mustPlace(b *testing.B, d *core.Device) *place.Placement {
	b.Helper()
	p, err := (place.Annealer{}).Place(context.Background(), d, place.Options{Seed: experiments.Seed})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkHydraulicSolve measures the flow-network solver on the largest
// assay benchmark.
func BenchmarkHydraulicSolve(b *testing.B) {
	d := mustBuild("general_purpose_mfd")
	network, err := sim.Build(d, sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	bcs := []sim.BC{{Node: "in.port1", Pressure: 10000}, {Node: "out.port1"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := network.Solve(bcs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControlPlan measures valve-plan synthesis on the control-heavy
// ChIP benchmark.
func BenchmarkControlPlan(b *testing.B) {
	d := mustBuild("chromatin_immunoprecipitation")
	planner, err := control.NewPlanner(d)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.PlanPhase("t", "in_sample", "out_product"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDRC measures design-rule checking on a fully routed device.
func BenchmarkDRC(b *testing.B) {
	res, err := pnr.Run(mustBuild("general_purpose_mfd"), pnr.Options{
		Placer: place.Greedy{},
		Router: route.AStar{},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drc.Check(res.Device, drc.Rules{})
	}
}
