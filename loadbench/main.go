// Command loadbench is the repository benchmark: it boots the real
// parchmint-serve binary on loopback, drives one seeded traffic mix over
// real sockets (a closed-loop saturation phase, then an open-loop phase
// at the workload's fixed Poisson rate), checks every response, and
// prints every metric by name and unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With -trace 1 it reports the per-layer metrics instead of the
// end-to-end ones, adding an in-process replay of the same requests with
// a span around each call into a layer. See README.md.
//
// Usage (run.sh builds both binaries and supplies -server):
//
//	loadbench -workload NAME -seed N -seconds S -trace 0|1 -server PATH
//	          [-workdir DIR] [-manifest PATH] [-record-manifest]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Limits of a valid run: a run past them is reported as invalid, not
// measured.
const (
	// maxLagP99 bounds how late the generator itself may send (timer
	// and scheduler slack, not queueing behind busy connections).
	maxLagP99 = 20 * time.Millisecond
	// maxBacklogGrowth bounds the median over rounds of how far a
	// fixed-rate slice's backlog grows from its first quarter to its
	// last, in requests per connection: a backlog that keeps growing
	// means the rate is past capacity and latency measures the queue,
	// not the server.
	maxBacklogGrowth = 4
	// replayCap bounds the requests a traced replay runs, which bounds
	// its span memory and trace file.
	replayCap = 20000
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload       string
	seed           uint64
	seconds        float64
	trace          bool
	server         string
	workdir        string
	manifest       string
	recordManifest bool
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "traffic mix: warm_hits, inline_parse, jobs_journal")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the request lists are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds (saturation plus fixed-rate phase)")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics, with a traced in-process replay")
	fs.StringVar(&o.server, "server", "", "parchmint-serve binary")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/loadbench", "directory for run state and trace files")
	fs.StringVar(&o.manifest, "manifest", "loadbench/manifest.json", "committed response manifest")
	fs.BoolVar(&o.recordManifest, "record-manifest", false, "merge this run's response hashes into -manifest")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.server == "" || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "loadbench: -server is required, -seconds must be positive, -trace is 0 or 1")
		return 2
	}
	o.trace = trace == 1
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, o, stdout)
	var inv *invalidRun
	switch {
	case errors.As(err, &inv):
		fmt.Fprintf(stderr, "loadbench: invalid run, not reported: %v\n", err)
		return 3
	case err != nil:
		fmt.Fprintf(stderr, "loadbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "loadbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// invalidRun marks a run whose load generator could not hold its
// schedule; its numbers would describe the generator, not the server.
type invalidRun struct{ reason string }

func (e *invalidRun) Error() string { return e.reason }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name every metric a run reports, with its unit,
// in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_rps", "req/s"},
	{"latency_p50_ms", "ms"},
	{"success_ratio", "ratio"},
	{"server_rss_peak_mb", "MiB"},
	{"pnr_hpwl_geomean", "um"},
	{"pnr_routed_ratio", "ratio"},
}

var perLayer = []struct{ name, unit string }{
	{"serve.server_p50_ms", "ms"},
	{"serve.server_p99_ms", "ms"},
	{"serve.wire_ms", "ms"},
	{"serve.resp_bytes_mean", "bytes"},
	{"serve.gzip_ratio", "ratio"},
	{"serve.envelope_us", "us"},
	{"serve.gzip_us", "us"},
	{"runner.shed", "count"},
	{"runner.shed_ratio", "ratio"},
	{"runner.queue_waiting_max", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.misses", "count"},
	{"cache.coalesced", "count"},
	{"cache.evictions", "count"},
	{"cache.bytes", "bytes"},
	{"cache.key_us", "us"},
	{"cache.lookup_us", "us"},
	{"core.decode_us", "us"},
	{"core.decode_mb_s", "MB/s"},
	{"core.encode_us", "us"},
	{"cli.load_us.bench", "us"},
	{"cli.load_us.json", "us"},
	{"cli.load_us.mint", "us"},
	{"schema.check_us", "us"},
	{"validate.us", "us"},
	{"mint.parse_us", "us"},
	{"mint.to_device_us", "us"},
	{"mint.from_device_us", "us"},
	{"mint.print_us", "us"},
	{"stats.profile_us", "us"},
	{"render.svg_us", "us"},
	{"place.self_ms.greedy", "ms"},
	{"place.self_ms.force", "ms"},
	{"place.stage_s", "s"},
	{"route.self_ms.hadlock", "ms"},
	{"route.expansions", "count"},
	{"route.pushes", "count"},
	{"route.stage_s", "s"},
	{"pnr.attach_s", "s"},
	{"pnr.attach_ms", "ms"},
	{"job.submitted", "count"},
	{"job.completed", "count"},
	{"job.failed", "count"},
	{"job.duration_p50_ms", "ms"},
	{"job.journal_bytes_per_job", "bytes"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_p99_ms", "ms"},
	{"go.heap_peak_mb", "MiB"},
	{"obs.trace_overhead_pct", "%"},
	{"trace.coverage_pct", "%"},
	{"trace.under90_pct", "%"},
	{"trace.requests", "count"},
	{"loadgen.latency_p90_ms", "ms"},
	{"loadgen.latency_p99_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.conns", "count"},
	{"loadgen.fail_ratio", "ratio"},
	{"loadgen.fixed_samples", "count"},
	{"loadgen.backlog_max", "count"},
}

// run performs one benchmark run and returns its report; the report's
// metrics are the end-to-end or the per-layer set, per o.trace.
func run(ctx context.Context, o options, stdout io.Writer) (*report, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	plan := w.Plan(o.seed, o.seconds)
	dir, err := filepath.Abs(filepath.Join(o.workdir, fmt.Sprintf("%s-%d-%d", w.Name, o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	journal := ""
	if w.Journal {
		journal = filepath.Join(dir, "journal.jsonl")
	}
	args := serverArgs(dir, nproc, journal)
	env := environment(nproc, dir, args, w)
	envLine, _ := json.Marshal(env) // plain strings and numbers
	fmt.Fprintf(stdout, "loadbench: workload=%s seed=%d seconds=%g trace=%v\nenv: %s\n", w.Name, o.seed, o.seconds, o.trace, envLine)

	led := newLedger()
	m := map[string]float64{}

	// Set-up: boot to /healthz 200 plus the workload's prefill, setupBoots
	// times; the last boot serves the measured phases.
	var setups []float64
	var srv *server
	var cl *client
	defer func() {
		if cl != nil {
			cl.close()
		}
		if srv != nil {
			srv.stop()
		}
	}()
	for b := 0; b < setupBoots; b++ {
		if journal != "" {
			if err := os.Remove(journal); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, err
			}
		}
		t0 := time.Now()
		s, err := startServer(ctx, o.server, dir, args, nproc)
		if err != nil {
			return nil, err
		}
		c := newClient(s.base, nproc)
		srv, cl = s, c
		if err := sequential(ctx, c, nproc, plan.Prefill, led); err != nil {
			return nil, fmt.Errorf("prefill: %w: %v", err, led.failures)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if b < setupBoots-1 {
			c.close()
			s.stop()
			srv, cl = nil, nil
		}
	}
	m["setup_s"] = median(setups)

	meas, err := measure(ctx, w, plan, srv.base, cl, nproc, journal, led)
	if err != nil {
		return nil, err
	}
	if err := sequential(ctx, cl, nproc, plan.Probe, led); err != nil {
		led.fail("quality probe: " + err.Error())
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	m["server_rss_peak_mb"] = rss
	cl.close()
	srv.stop()
	cl, srv = nil, nil

	// Output checks: device validity, the manifest, quality.
	nDev := checkDevices(led)
	man, err := loadManifest(o.manifest)
	if err != nil {
		return nil, err
	}
	nMan := man.compare(led)
	qualReqs := plan.Fixed
	if !hasPNR(qualReqs) {
		qualReqs = plan.Probe
	}
	hpwl, routed, nq, err := quality(led, qualReqs)
	if err != nil {
		led.fail("quality: " + err.Error())
	}
	m["pnr_hpwl_geomean"], m["pnr_routed_ratio"] = hpwl, routed

	// End-to-end figures: medians over the rounds.
	var tput, p50, p90, p99, lags, growths []float64
	satSent, fixedSent, okFixed, backlogMax := 0, 0, 0, 0
	for _, rd := range meas.rounds {
		satSent += rd.sat.attempted
		tput = append(tput, float64(rd.sat.ok)/rd.sat.elapsed.Seconds())
		lat := make([]float64, 0, rd.fr.attempts)
		for i := 0; i < rd.fr.attempts; i++ {
			lags = append(lags, ms(rd.fr.lag[i]))
			if rd.fr.ok[i] {
				okFixed++
				lat = append(lat, ms(rd.fr.latency[i]))
			} else {
				lat = append(lat, math.Inf(1)) // a failure misses any latency limit
			}
		}
		fixedSent += rd.fr.attempts
		sort.Float64s(lat)
		p50 = append(p50, quantile(lat, 0.50))
		p99 = append(p99, quantile(lat, 0.99))
		p90 = append(p90, quantile(lat, 0.90))
		g, b := backlogGrowth(rd.fr, rd.dur, nproc)
		growths, backlogMax = append(growths, g), max(backlogMax, b)
	}
	// A stall that swamps one round is the machine's; a rate past capacity
	// grows the backlog in most of them.
	growth := median(growths)
	attempted := satSent + fixedSent + len(plan.Probe)
	failed := min(led.failed, attempted)
	m["throughput_rps"] = median(tput)
	m["latency_p50_ms"] = median(p50)
	m["loadgen.latency_p90_ms"] = median(p90)
	m["loadgen.latency_p99_ms"] = median(p99)
	m["success_ratio"] = 1 - float64(failed)/float64(attempted)

	// Generator honesty.
	sort.Float64s(lags)
	m["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
	m["loadgen.backlog_max"] = float64(backlogMax)
	m["loadgen.sent"] = float64(satSent + fixedSent)
	m["loadgen.conns"] = float64(nproc)
	m["loadgen.fail_ratio"] = float64(failed) / float64(attempted)
	m["loadgen.fixed_samples"] = float64(fixedSent)
	fmt.Fprintf(stdout, "phases: %d rounds; saturation %d requests, %.0f req/s per round %v; fixed rate %.0f/s: %d requests due over %.1fs, %d ok, p50 per round %v ms, p90 %v ms, p99 %v ms; lag p99 %.2f ms; backlog growth %.2f/conn, max %d\n",
		rounds, satSent, m["throughput_rps"], rounded(tput), w.Rate, len(plan.Due), plan.FixedDur.Seconds(), okFixed,
		rounded(p50), rounded(p90), rounded(p99), m["loadgen.lag_p99_ms"], growth, backlogMax)
	fmt.Fprintf(stdout, "checks: %d keys, %d compared with the manifest, %d devices validated, quality over %d pnr responses, %d failed\n",
		len(led.hashes), nMan, nDev, nq, failed)
	for _, f := range led.failures {
		fmt.Fprintf(stdout, "failure: %s\n", f)
	}
	// A run with failed checks is reported as such (exit 1) even when it
	// also stalled: the validity limits apply only to correct runs.
	if failed == 0 {
		if lag := m["loadgen.lag_p99_ms"]; lag > ms(maxLagP99) {
			return nil, &invalidRun{fmt.Sprintf("generator lag p99 %.2f ms exceeds %v", lag, maxLagP99)}
		}
		if growth > maxBacklogGrowth {
			return nil, &invalidRun{fmt.Sprintf("fixed-rate backlog grew by a median %.1f requests per connection through the rounds (limit %d): the rate is past capacity", growth, maxBacklogGrowth)}
		}
	}

	scraped(m, meas, attempted)
	rep := &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if o.trace {
		rr, err := replay(plan.Prefill, plan.Fixed, time.Duration(o.seconds/2*float64(time.Second)), replayCap)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		traced(m, rr)
		path := filepath.Join(o.workdir, "traces", fmt.Sprintf("%s-seed%d.json", w.Name, o.seed))
		if err := rr.tracer.writeChrome(path, env); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(stdout, "trace: %d requests replayed, %d spans written to %s\n", rr.n, len(rr.tracer.spans), path)
		for _, name := range rr.summary.layerNames() {
			l := rr.summary.layers[name]
			fmt.Fprintf(stdout, "span %-20s calls=%-7d self=%.1fus/call\n", name, l.calls, l.selfUS())
		}
	}
	set := endToEnd
	if o.trace {
		set = perLayer
	}
	for _, d := range set {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "metric %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	if o.recordManifest && rep.Correct {
		if err := man.merge(led, plan, o.seed, o.manifest); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// scraped fills the per-layer metrics read from /metrics: counts over
// the fixed-rate slices, shedding over every slice, gauges at the end.
func scraped(m map[string]float64, meas *measured, attempted int) {
	fixed := meas.fixed
	last := fixed[len(fixed)-1].after
	endpoints := map[string]bool{"validate": true, "convert": true, "pnr": true, "stats": true, "render": true, "jobs-submit": true}
	lat := windowBuckets(fixed, "parchmint_request_duration_seconds", func(l map[string]string) bool { return endpoints[l["endpoint"]] })
	m["serve.server_p50_ms"] = 1000 * bucketQuantile(0.5, lat)
	m["serve.server_p99_ms"] = 1000 * bucketQuantile(0.99, lat)
	m["serve.wire_ms"] = m["latency_p50_ms"] - m["serve.server_p50_ms"]
	if sz := meas.sizes; sz.responses > 0 {
		m["serve.resp_bytes_mean"] = float64(sz.wireBytes) / float64(sz.responses)
		if sz.gzIdent > 0 {
			m["serve.gzip_ratio"] = float64(sz.gzWire) / float64(sz.gzIdent)
		}
	}
	shed := windowDelta(append(append([]window{}, meas.sat...), fixed...), "parchmint_shed_total", nil)
	m["runner.shed"] = shed
	m["runner.shed_ratio"] = shed / float64(attempted)
	m["runner.queue_waiting_max"] = meas.queueMax
	outcome := func(o string) float64 {
		return windowDelta(fixed, "parchmint_cache_requests_total", map[string]string{"outcome": o})
	}
	hits, misses, coalesced := outcome("hit"), outcome("miss"), outcome("coalesced")
	if all := hits + misses + coalesced; all > 0 {
		m["cache.hit_ratio"] = hits / all
	}
	m["cache.misses"], m["cache.coalesced"] = misses, coalesced
	m["cache.evictions"] = windowDelta(append(append([]window{}, meas.sat...), fixed...), "parchmint_cache_evictions_total", nil)
	m["cache.bytes"] = last.sum("parchmint_cache_bytes", nil)
	stage := func(s string) float64 {
		return windowDelta(fixed, "parchmint_stage_seconds_total", map[string]string{"stage": s})
	}
	m["place.stage_s"], m["route.stage_s"], m["pnr.attach_s"] = stage("place"), stage("route"), stage("attach")
	m["route.expansions"] = windowDelta(fixed, "parchmint_route_expansions_total", nil)
	m["route.pushes"] = windowDelta(fixed, "parchmint_route_pushes_total", nil)
	submitted := windowDelta(fixed, "parchmint_jobs_submitted_total", nil)
	m["job.submitted"] = submitted
	m["job.completed"] = windowDelta(fixed, "parchmint_jobs_completed_total", nil)
	m["job.failed"] = windowDelta(fixed, "parchmint_jobs_failed_total", nil)
	m["job.duration_p50_ms"] = 1000 * bucketQuantile(0.5, windowBuckets(fixed, "parchmint_job_duration_seconds",
		func(l map[string]string) bool { return l["status"] == "completed" }))
	if submitted > 0 {
		m["job.journal_bytes_per_job"] = float64(meas.journalBytes) / submitted
	}
	m["go.gc_cycles"] = windowDelta(fixed, "parchmint_go_gc_cycles_total", nil)
	m["go.gc_pause_p99_ms"] = 1000 * last.sum("parchmint_go_gc_pause_seconds", map[string]string{"q": "p99"})
	m["go.heap_peak_mb"] = max(meas.heapMax, last.sum("parchmint_go_heap_objects_bytes", nil)) / (1 << 20)
}

// traced fills the per-layer metrics read from the replay's spans.
func traced(m map[string]float64, rr *replayResult) {
	l := rr.summary.layers
	us := func(name string) float64 { return l[name].selfUS() }
	for metricName, span := range map[string]string{
		"serve.envelope_us":   "serve.envelope",
		"serve.gzip_us":       "serve.gzip",
		"cache.key_us":        "cache.key",
		"cache.lookup_us":     "cache.lookup",
		"core.decode_us":      "core.decode",
		"core.encode_us":      "core.encode",
		"cli.load_us.bench":   "cli.load.bench",
		"cli.load_us.json":    "cli.load.json",
		"cli.load_us.mint":    "cli.load.mint",
		"schema.check_us":     "schema.check",
		"validate.us":         "validate",
		"mint.parse_us":       "mint.parse",
		"mint.to_device_us":   "mint.to_device",
		"mint.from_device_us": "mint.from_device",
		"mint.print_us":       "mint.print",
		"stats.profile_us":    "stats.profile",
		"render.svg_us":       "render.svg",
	} {
		m[metricName] = us(span)
	}
	m["place.self_ms.greedy"] = us("place.greedy") / 1000
	m["place.self_ms.force"] = us("place.force") / 1000
	m["route.self_ms.hadlock"] = us("route.hadlock") / 1000
	m["pnr.attach_ms"] = us("pnr.attach") / 1000
	if d := l["core.decode"]; d != nil && d.self > 0 {
		m["core.decode_mb_s"] = float64(d.bytes) / d.self.Seconds() / 1e6
	}
	if rr.untraced > 0 {
		m["obs.trace_overhead_pct"] = 100 * (rr.traced.Seconds() - rr.untraced.Seconds()) / rr.untraced.Seconds()
	}
	m["trace.coverage_pct"] = 100 * rr.summary.coverage
	if rr.summary.requests > 0 {
		m["trace.under90_pct"] = 100 * float64(rr.summary.under90) / float64(rr.summary.requests)
	}
	m["trace.requests"] = float64(rr.n)
}

// backlogGrowth compares the median fixed-rate backlog (requests due but
// not yet sent), sampled every 50 ms, of a slice's last quarter with its
// first quarter's, per connection: a backlog that keeps growing moves
// the median, a passing stall does not. It also returns the largest
// backlog seen.
func backlogGrowth(fr *fixedResult, dur time.Duration, conns int) (float64, int) {
	const step = 50 * time.Millisecond
	var samples []int
	peak := 0
	for t := step; t <= dur; t += step {
		b := fr.backlog(t)
		samples = append(samples, b)
		peak = max(peak, b)
	}
	q := len(samples) / 4
	if q == 0 {
		return 0, peak
	}
	med := func(s []int) float64 {
		f := make([]float64, len(s))
		for i, v := range s {
			f[i] = float64(v)
		}
		return median(f)
	}
	return (med(samples[len(samples)-q:]) - med(samples[:q])) / float64(conns), peak
}

func hasPNR(reqs []Request) bool {
	for i := range reqs {
		if reqs[i].Check == checkPNR {
			return true
		}
	}
	return false
}

// quantile reads the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rounded formats per-round figures for the summary line.
func rounded(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// environment is the block every run prints before its metrics.
func environment(nproc int, dir string, args []string, w *Workload) map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	flags := make([]string, len(args))
	for i, a := range args {
		if rel, err := filepath.Rel(dir, a); err == nil && !strings.HasPrefix(rel, "..") && filepath.IsAbs(a) {
			a = "<run>/" + rel
		}
		flags[i] = a
	}
	return map[string]any{
		"nproc":              nproc,
		"gomaxprocs_loadgen": runtime.GOMAXPROCS(0),
		"gomaxprocs_server":  nproc,
		"connections":        nproc,
		"go_version":         runtime.Version(),
		"kernel":             strings.TrimSpace(string(kernel)),
		"run_dir_fs":         fsType(dir),
		"server_flags":       strings.Join(flags, " "),
		"fixed_rate_rps":     w.Rate,
		"note": fmt.Sprintf("nproc=%d: the server and the load generator share these cores, so this run measures "+
			"single-node serving cost; a run on 2 cores cannot support parallel-speedup claims", nproc),
	}
}

// fsType names the filesystem holding path, from /proc/self/mounts.
func fsType(path string) string {
	b, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if (path == mnt || strings.HasPrefix(path, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > best {
			best, typ = len(mnt), f[2]
		}
	}
	return typ
}
