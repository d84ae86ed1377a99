// Command parchmint-bench regenerates the paper's evaluation artifacts:
// every table and figure in DESIGN.md's per-experiment index, plus the
// wall-clock "timing" pseudo-experiment (experiments.TimingTable).
//
// Usage:
//
//	parchmint-bench -list
//	parchmint-bench -exp table1
//	parchmint-bench -exp all -j 8 -outdir results/
//	parchmint-bench -exp timing -trace timing-trace.json
//
// -j sets the worker count (default: all CPUs). Artifacts are
// byte-identical at every worker count; only wall time changes. -trace
// records a Chrome trace_event span timeline of the run (experiment
// spans, and per-stage pipeline spans under -exp timing) without
// affecting the artifacts.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// timingID is the wall-clock stage-profiling pseudo-experiment.
// It is not part of "-exp all" because its output is machine- and
// run-specific, and "all" is the byte-reproducible golden set.
const timingID = "timing"

func usage() {
	fmt.Fprintf(os.Stderr, "usage: parchmint-bench -list | -exp <id|all|%s> [-j N] [-outdir DIR]\n", timingID)
	fmt.Fprintf(os.Stderr, "experiments: %v\n", experiments.IDs())
}

func main() {
	list := flag.Bool("list", false, "list experiment IDs with their titles")
	exp := flag.String("exp", "", `experiment ID, "all", or "timing"`)
	outdir := flag.String("outdir", "", "write artifacts to files in this directory instead of stdout")
	jobs := flag.Int("j", runtime.NumCPU(), "worker count for parallel execution (0 = all CPUs)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON span trace of the run to this file")
	flag.Usage = usage
	flag.Parse()

	if *jobs < 1 {
		*jobs = runtime.NumCPU()
	}
	ctx, flushTrace := cli.TraceContext(context.Background(), *traceOut)

	switch {
	case *list:
		for _, in := range experiments.Describe() {
			fmt.Printf("%-14s%s\n", in.ID, in.Title)
		}
		fmt.Printf("%-14s%s\n", timingID, `pipeline stage wall-time profile (pseudo-experiment, not in "all")`)
	case *exp == "all":
		_, sp := obs.Start(ctx, "exp.all")
		arts := experiments.All(*jobs)
		sp.End()
		for _, a := range arts {
			if err := emit(a, *outdir); err != nil {
				cli.Fatalf("%s: %v", a.ID, err)
			}
		}
	case *exp == timingID:
		tb := experiments.TimingTable(ctx, bench.Suite(), *jobs, experiments.Seed)
		if err := emit(experiments.Artifact{ID: timingID, Text: tb.Render()}, *outdir); err != nil {
			cli.Fatalf("%s: %v", timingID, err)
		}
	case *exp != "":
		_, sp := obs.Start(ctx, "exp."+*exp)
		text, err := experiments.Run(*exp, *jobs)
		sp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "parchmint-bench: %v\n", err)
			usage()
			os.Exit(2)
		}
		if err := emit(experiments.Artifact{ID: *exp, Text: text}, *outdir); err != nil {
			cli.Fatalf("%s: %v", *exp, err)
		}
	default:
		usage()
		os.Exit(2)
	}
	if err := flushTrace(); err != nil {
		cli.Fatalf("trace: %v", err)
	}
}

func emit(a experiments.Artifact, outdir string) error {
	if outdir == "" {
		fmt.Println(a.Text)
		return nil
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outdir, a.ID+".txt")
	if err := os.WriteFile(path, []byte(a.Text), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
