// The timing pseudo-experiment: per-benchmark, per-stage wall-time and
// allocation profiling of the full pipeline (build → validate → place →
// route → attach → profile), collected in parallel and rendered as a
// stats.Table. parchmint-bench runs it as "-exp timing" — deliberately NOT
// part of "-exp all": its numbers are wall-clock measurements of this
// machine and run, so it is excluded from the byte-reproducible artifact
// set the golden tests pin.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/place"
	"repro/internal/pnr"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/validate"
)

// timingStages is the column order of the timing table.
var timingStages = [6]string{"build", "validate", pnr.StagePlace, pnr.StageRoute, pnr.StageAttach, "profile"}

// TimingTable profiles the full pipeline over the given benchmarks with
// the fast baseline engines (greedy + A*) on workers parallel workers,
// seeding each benchmark's flow with par.DeriveSeed(seed,
// benchmark-name). It reports per-stage wall time in milliseconds plus
// the process-wide allocation delta attributed to each benchmark
// (approximate under concurrency: allocation is sampled around the whole
// benchmark, not per goroutine). The place, route and attach columns come
// from the flow's own stage hook (pnr.WithObserver). Rows appear in
// benchmark order regardless of completion order. A telemetry recorder on
// ctx sees one span per benchmark wrapping the flow's stage spans.
func TimingTable(ctx context.Context, benchmarks []bench.Benchmark, workers int, seed uint64) *stats.Table {
	placer, router := place.Greedy{}, route.AStar{}
	rows := make([][len(timingStages)]time.Duration, len(benchmarks))
	allocs := make([]uint64, len(benchmarks))
	par.ForEach(workers, len(benchmarks), func(i int) {
		b, row := benchmarks[i], &rows[i]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tctx, span := obs.Start(ctx, "timing."+b.Name)
		defer span.End()
		start := time.Now()
		d := b.Build()
		row[0] = time.Since(start)
		start = time.Now()
		if vr := validate.Validate(d); !vr.OK() {
			panic(fmt.Sprintf("experiments: %s fails validation: %s", b.Name, vr))
		}
		row[1] = time.Since(start)
		if _, err := pnr.RunContext(tctx, d, pnr.Options{
			Placer: placer,
			Router: router,
			Place:  place.Options{Seed: par.DeriveSeed(seed, b.Name)},
			Observe: func(stage string, dur time.Duration) {
				switch stage {
				case pnr.StagePlace:
					row[2] += dur
				case pnr.StageRoute:
					row[3] += dur
				case pnr.StageAttach:
					row[4] += dur
				}
			},
		}); err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", b.Name, err))
		}
		start = time.Now()
		stats.ProfileDevice(d, string(b.Class))
		row[5] = time.Since(start)
		runtime.ReadMemStats(&after)
		allocs[i] = after.TotalAlloc - before.TotalAlloc
	})
	cols := []string{"benchmark"}
	for _, s := range timingStages {
		cols = append(cols, s+"(ms)")
	}
	cols = append(cols, "total(ms)", "alloc(mb)")
	t := stats.NewTable(
		fmt.Sprintf("Timing: pipeline stage profile (%s + %s, %d workers; wall-clock, not byte-reproducible)",
			placer.Name(), router.Name(), workers),
		cols...,
	)
	for i, b := range benchmarks {
		row := []string{b.Name}
		var total time.Duration
		for _, d := range rows[i] {
			total += d
			row = append(row, stats.F2(msOf(d)))
		}
		row = append(row, stats.F2(msOf(total)), stats.F2(float64(allocs[i])/(1<<20)))
		t.AddRow(row...)
	}
	return t
}

func msOf(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
