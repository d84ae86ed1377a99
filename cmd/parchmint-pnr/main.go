// Command parchmint-pnr runs the full physical design flow — placement
// then routing — on a ParchMint device and writes the feature-annotated
// result. The stage metrics (HPWL, area, completion, channel length) print
// to stderr so the JSON output stays pipeable.
//
// Usage:
//
//	parchmint-pnr bench:aquaflex_3b -o placed.json
//	parchmint-pnr -placer greedy -router lee device.json
//	parchmint-pnr -seed 7 -utilization 0.25 bench:planar_synthetic_2
//	parchmint-pnr -trace trace.json -o /dev/null bench:rotary_pcr
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/pnr"
	"repro/internal/route"
)

func main() {
	placerName := flag.String("placer", "anneal", "placement engine: greedy, force, anneal")
	routerName := flag.String("router", "astar", "routing engine: lee, astar, hadlock")
	seed := flag.Uint64("seed", 1, "seed for randomized stages")
	utilization := flag.Float64("utilization", 0, "die utilization (0 = default)")
	ordering := flag.String("order", "", "net order: short-first, long-first, as-given")
	replicas := flag.Int("replicas", 0, "parallel-tempering replicas for the annealer (<2 = single-replica)")
	out := flag.String("o", "", "output file (default stdout)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the flow to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after the flow) to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON span trace of the flow to this file")
	flag.Parse()
	if flag.NArg() != 1 {
		cli.Fatalf("usage: parchmint-pnr [flags] <file.json|bench:NAME|->")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			cli.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			cli.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	placer, err := place.EngineByName(*placerName)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	router, err := route.EngineByName(*routerName)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	ctx, flushTrace := cli.TraceContext(context.Background(), *traceOut)
	loaded, err := cli.LoadArg(ctx, flag.Arg(0))
	if err != nil {
		cli.Fatalf("%s: %v", flag.Arg(0), err)
	}
	loaded.PrintNotes(os.Stderr)

	opts := []pnr.Option{
		pnr.WithPlacer(placer),
		pnr.WithRouter(router),
		pnr.WithSeed(*seed),
		pnr.WithOrdering(route.Order(*ordering)),
		pnr.WithReplicas(*replicas),
	}
	if *utilization > 0 {
		opts = append(opts, pnr.WithUtilization(*utilization))
	}
	res, err := pnr.RunContext(ctx, loaded.Device, pnr.NewOptions(opts...))
	if err != nil {
		cli.Fatalf("%v", err)
	}
	if err := flushTrace(); err != nil {
		cli.Fatalf("trace: %v", err)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			cli.Fatalf("memprofile: %v", err)
		}
		runtime.GC() // settle the heap so the profile shows retained allocations
		if err := pprof.WriteHeapProfile(f); err != nil {
			cli.Fatalf("memprofile: %v", err)
		}
		f.Close()
	}

	fmt.Fprintf(os.Stderr, "placement (%s): HPWL %d um, area %.2f mm2\n",
		placer.Name(), res.PlaceMetrics.HPWL, float64(res.PlaceMetrics.Area)/1e6)
	fmt.Fprintf(os.Stderr, "routing (%s): %d/%d nets (%.1f%%), %d um channel, %d expansions, %d rounds\n",
		router.Name(), res.RouteReport.Routed(), res.RouteReport.Total(),
		100*res.RouteReport.CompletionRate(), res.RouteReport.TotalLength(),
		res.RouteReport.TotalExpansions(), res.RouteReport.Rounds)

	data, err := core.Marshal(res.Device)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	if err := cli.WriteOutput(*out, data); err != nil {
		cli.Fatalf("%v", err)
	}
}
