package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/mint"
	"repro/internal/par"
	"repro/internal/place"
	"repro/internal/pnr"
	"repro/internal/render"
	"repro/internal/route"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/validate"
)

// span is one timed call. Spans live in the benchmark only: the replay
// wraps each call into a layer's public API, and nothing inside the
// program is instrumented for it.
type span struct {
	name       string
	parent     int32 // index of the enclosing span, -1 for a request root
	req        int32
	start, end time.Duration // since the tracer's epoch
	bytes      int           // input size, for throughput spans
}

// tracer records spans in memory; a nil tracer records nothing, which is
// how the untraced replay runs the same code.
type tracer struct {
	epoch time.Time
	spans []span
	req   int32
}

func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, req: t.req, start: time.Since(t.epoch)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t != nil && i >= 0 {
		t.spans[i].end = time.Since(t.epoch)
	}
}

func (t *tracer) setBytes(i int32, n int) {
	if t != nil && i >= 0 {
		t.spans[i].bytes = n
	}
}

// layerStat aggregates one span name.
type layerStat struct {
	calls       int
	self, total time.Duration
	bytes       int64
}

// selfUS is the mean self time per call in microseconds (0 when the
// layer never ran).
func (l *layerStat) selfUS() float64 {
	if l == nil || l.calls == 0 {
		return 0
	}
	return float64(l.self.Nanoseconds()) / 1e3 / float64(l.calls)
}

// traceSummary is what the per-layer report reads from the spans.
type traceSummary struct {
	layers map[string]*layerStat
	// coverage is the share of replayed request wall time that the
	// request's child spans account for; under90 counts the requests
	// whose own coverage fell below 90%.
	coverage float64
	under90  int
	requests int
}

// summarize computes self times: a span's duration minus the part its
// children cover.
func (t *tracer) summarize() traceSummary {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	sum := traceSummary{layers: map[string]*layerStat{}}
	var covered, wall time.Duration
	for i, s := range t.spans {
		dur := s.end - s.start
		l := sum.layers[s.name]
		if l == nil {
			l = &layerStat{}
			sum.layers[s.name] = l
		}
		l.calls++
		l.total += dur
		l.self += dur - child[i]
		l.bytes += int64(s.bytes)
		if s.parent < 0 {
			sum.requests++
			covered += child[i]
			wall += dur
			if dur > 0 && float64(child[i]) < 0.9*float64(dur) {
				sum.under90++
			}
		}
	}
	if wall > 0 {
		sum.coverage = float64(covered) / float64(wall)
	}
	return sum
}

// writeChrome writes the spans as Chrome trace_event JSON (one complete
// event per span; load it in chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path string, env map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bytes.NewBuffer(make([]byte, 0, 1<<20))
	w.WriteString(`{"traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"req":%d,"parent":%d}}`,
			s.name, float64(s.start.Nanoseconds())/1e3, float64((s.end-s.start).Nanoseconds())/1e3, s.req, s.parent)
		if w.Len() > 1<<20 {
			if _, err := f.Write(w.Bytes()); err != nil {
				f.Close()
				return err
			}
			w.Reset()
		}
	}
	w.WriteString(`],"otherData":`)
	envJSON, err := json.Marshal(env)
	if err != nil {
		f.Close()
		return err
	}
	w.Write(envJSON)
	w.WriteString("}\n")
	if _, err := f.Write(w.Bytes()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// envelope holds the request envelope members the server reads.
type envelope struct {
	Op          string
	Bench       string
	Device      []byte // raw JSON, as the server captures it
	Text        string
	Format      string
	Seed        uint64
	Placer      string
	Router      string
	Utilization float64
	To          string
	Scale       float64
	Labels      bool
}

// parseEnvelope decodes body with core.Parser, reading the members the
// server's envelope decoder reads (job submissions add "op"), with its
// rules: case-folded keys, last duplicate wins, null ignored, unknown
// members skipped.
func parseEnvelope(body []byte, env *envelope) error {
	p := core.NewParser(body)
	defer p.Release()
	if err := p.BeginObject(); err != nil {
		return err
	}
	str := func(dst *string) error {
		if p.TryNull() {
			return nil
		}
		s, err := p.ReadString()
		*dst = s
		return err
	}
	num := func(dst *float64) error {
		if p.TryNull() {
			return nil
		}
		v, err := p.ReadFloat64()
		*dst = v
		return err
	}
	first := true
	for {
		key, ok, err := p.NextKey(&first)
		if err != nil || !ok {
			return err
		}
		switch {
		case core.FoldEq(key, "OP"):
			err = str(&env.Op)
		case core.FoldEq(key, "BENCH"):
			err = str(&env.Bench)
		case core.FoldEq(key, "DEVICE"):
			env.Device, err = p.RawValue()
		case core.FoldEq(key, "TEXT"):
			err = str(&env.Text)
		case core.FoldEq(key, "FORMAT"):
			err = str(&env.Format)
		case core.FoldEq(key, "SEED"):
			if !p.TryNull() {
				env.Seed, err = p.ReadUint64()
			}
		case core.FoldEq(key, "PLACER"):
			err = str(&env.Placer)
		case core.FoldEq(key, "ROUTER"):
			err = str(&env.Router)
		case core.FoldEq(key, "UTILIZATION"):
			err = num(&env.Utilization)
		case core.FoldEq(key, "TO"):
			err = str(&env.To)
		case core.FoldEq(key, "SCALE"):
			err = num(&env.Scale)
		case core.FoldEq(key, "LABELS"):
			if !p.TryNull() {
				env.Labels, err = p.ReadBool()
			}
		default:
			err = p.SkipValue()
		}
		if err != nil {
			return err
		}
	}
}

// replayer runs requests in-process through each layer's public
// functions, in the order the server's handlers call them, with the
// server's result cache (internal/cache, probed with Lookup and filled
// through Do) so hits skip the same work.
type replayer struct {
	ctx   context.Context
	t     *tracer
	cache *cache.Cache
	gz    *gzip.Writer
}

// Defaults of parchmint-serve: -seed, from which pnr requests without a
// seed derive theirs, and -cache-bytes.
const (
	serverBaseSeed   = 2018
	serverCacheBytes = 64 << 20
)

func newReplayer(t *tracer) *replayer {
	gz, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed) // a valid constant level never errors
	return &replayer{ctx: context.Background(), t: t, cache: cache.New(serverCacheBytes), gz: gz}
}

func (rp *replayer) run(q *Request) error {
	t := rp.t
	if t != nil {
		t.req++
	}
	root := t.begin("request", -1)
	defer t.end(root)
	sp := t.begin("serve.envelope", root)
	body := q.Body.Bytes()
	var env envelope
	err := parseEnvelope(body, &env)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("%s: envelope: %w", q.Key, err)
	}
	sp = t.begin("cache.key", root)
	key := cache.Key([]byte(q.Op), body)
	t.end(sp)
	sp = t.begin("cache.lookup", root)
	ent, hit := rp.cache.Lookup(key)
	t.end(sp)
	if !hit {
		// The cache's own share of a miss (flight bookkeeping, insert,
		// eviction) is the self time of cache.do.
		sp = t.begin("cache.do", root)
		ent, _, err = rp.cache.Do(rp.ctx, key, func() (cache.Entry, error) {
			return rp.exec(sp, q.Op, &env)
		})
		t.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Key, err)
		}
	}
	out := ent.Body
	if q.Gzip {
		sp = t.begin("serve.gzip", root)
		rp.gz.Reset(io.Discard)
		_, err = rp.gz.Write(out)
		if err == nil {
			err = rp.gz.Close()
		}
		t.end(sp)
	}
	return err
}

// load resolves the envelope's device source the way cli.Load does.
func (rp *replayer) load(parent int32, env *envelope) (*core.Device, []byte, error) {
	t := rp.t
	switch {
	case env.Bench != "":
		sp := t.begin("cli.load.bench", parent)
		defer t.end(sp)
		res, err := cli.Load(rp.ctx, cli.Source{Name: env.Bench, Format: cli.FormatBench})
		if err != nil {
			return nil, nil, err
		}
		return res.Device, nil, nil
	case len(env.Device) > 0:
		sp := t.begin("cli.load.json", parent)
		defer t.end(sp)
		dec := t.begin("core.decode", sp)
		d, err := core.Unmarshal(env.Device)
		t.setBytes(dec, len(env.Device))
		t.end(dec)
		return d, env.Device, err
	case env.Format == "mint":
		sp := t.begin("cli.load.mint", parent)
		defer t.end(sp)
		ps := t.begin("mint.parse", sp)
		f, err := mint.Parse(env.Text)
		t.end(ps)
		if err != nil {
			return nil, nil, err
		}
		cs := t.begin("mint.to_device", sp)
		d, _, err := mint.ToDevice(f)
		t.end(cs)
		return d, nil, err
	}
	return nil, nil, fmt.Errorf("no device source the replay handles")
}

// exec computes the cache entry of a miss.
func (rp *replayer) exec(parent int32, op string, env *envelope) (cache.Entry, error) {
	b, err := rp.respond(parent, op, env)
	ct := "application/json"
	if op == "render" {
		ct = "image/svg+xml"
	}
	return cache.Entry{ContentType: ct, Body: b}, err
}

func (rp *replayer) respond(parent int32, op string, env *envelope) ([]byte, error) {
	t := rp.t
	d, raw, err := rp.load(parent, env)
	if err != nil {
		return nil, err
	}
	var resp any
	switch op {
	case "validate":
		sp := t.begin("validate", parent)
		rep := validate.Validate(d)
		t.end(sp)
		var issues []string
		if raw != nil {
			sp = t.begin("schema.check", parent)
			for _, is := range schema.Check(raw).Issues {
				issues = append(issues, is.String())
			}
			t.end(sp)
		}
		resp = struct {
			OK     bool
			Diags  any
			Schema []string
		}{rep.OK(), rep.Diags, issues}
	case "stats":
		class := "custom"
		if b, err := bench.ByName(env.Bench); err == nil {
			class = string(b.Class)
		}
		sp := t.begin("stats.profile", parent)
		resp = stats.ProfileDevice(d, class)
		t.end(sp)
	case "convert":
		to := env.To
		if to == "" {
			to = "mint"
			if env.Format == "mint" {
				to = "json"
			}
		}
		if to == "mint" {
			sp := t.begin("mint.from_device", parent)
			f, _, err := mint.FromDevice(d)
			t.end(sp)
			if err != nil {
				return nil, err
			}
			sp = t.begin("mint.print", parent)
			resp = mint.Print(f)
			t.end(sp)
		} else {
			sp := t.begin("core.encode", parent)
			js, err := core.MarshalCanonical(d)
			t.end(sp)
			if err != nil {
				return nil, err
			}
			resp = json.RawMessage(js)
		}
	case "pnr":
		sp := t.begin("validate", parent)
		verr := validate.Validate(d).Err()
		t.end(sp)
		if verr != nil {
			return nil, verr
		}
		out, m, err := rp.pnr(parent, d, env)
		if err != nil {
			return nil, err
		}
		sp = t.begin("core.encode", parent)
		js, err := core.MarshalCanonical(out)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		resp = struct {
			Device json.RawMessage
			Place  place.Metrics
		}{js, m}
	case "render":
		if !d.HasFeatures() {
			if d, _, err = rp.pnr(parent, d, &envelope{}); err != nil {
				return nil, err
			}
		}
		sp := t.begin("render.svg", parent)
		svg, err := render.SVG(d, render.Options{Scale: env.Scale, ShowLabels: env.Labels})
		t.end(sp)
		return []byte(svg), err
	default:
		return nil, fmt.Errorf("replay has no op %q", op)
	}
	// The server's response encoders are unexported, so the replay stands
	// in encoding/json for them; the span keeps the coverage honest but
	// feeds no metric, since it does not time the server's code.
	sp := t.begin("replay.encode", parent)
	b, err := json.Marshal(resp)
	t.end(sp)
	return b, err
}

// pnr runs the place-and-route flow stage by stage, as pnr.RunContext
// does, so each engine's time is its own span.
func (rp *replayer) pnr(parent int32, d *core.Device, env *envelope) (*core.Device, place.Metrics, error) {
	t := rp.t
	placer, err := place.EngineByName(env.Placer)
	if err != nil {
		return nil, place.Metrics{}, err
	}
	router, err := route.EngineByName(env.Router)
	if err != nil {
		return nil, place.Metrics{}, err
	}
	seed := env.Seed
	if seed == 0 {
		seed = par.DeriveSeed(serverBaseSeed, d.Name)
	}
	opts := pnr.NewOptions(pnr.WithPlacer(placer), pnr.WithRouter(router), pnr.WithSeed(seed))
	if env.Utilization > 0 {
		opts.Place.Utilization = env.Utilization
	}
	sp := t.begin("place."+placer.Name(), parent)
	p, err := placer.Place(rp.ctx, d, opts.Place)
	t.end(sp)
	if err != nil {
		return nil, place.Metrics{}, err
	}
	sp = t.begin("route."+router.Name(), parent)
	rep, err := route.RouteAll(rp.ctx, p, router, opts.Route)
	t.end(sp)
	if err != nil {
		return nil, place.Metrics{}, err
	}
	sp = t.begin("pnr.attach", parent)
	out := d.Clone()
	out.Features = append(place.ToFeatures(p), rep.Features()...)
	out.AttachPaths()
	m := place.Evaluate(p)
	t.end(sp)
	return out, m, nil
}

// replayResult is the traced run's outcome.
type replayResult struct {
	n                int
	untraced, traced time.Duration
	summary          traceSummary
	tracer           *tracer
}

// replay runs the fixed phase's requests in-process twice: untraced until
// budget is spent (at most maxN requests), then the same requests traced.
// Each pass starts from a cache filled with the prefill, so both see the
// same hits.
func replay(prefill, reqs []Request, budget time.Duration, maxN int) (*replayResult, error) {
	warm := func(rp *replayer) error {
		for i := range prefill {
			if err := rp.run(&prefill[i]); err != nil {
				return err
			}
		}
		return nil
	}
	res := &replayResult{}
	rp := newReplayer(nil)
	if err := warm(rp); err != nil {
		return nil, err
	}
	start := time.Now()
	for res.n < len(reqs) && res.n < maxN && time.Since(start) < budget {
		if err := rp.run(&reqs[res.n]); err != nil {
			return nil, err
		}
		res.n++
	}
	res.untraced = time.Since(start)

	rp = newReplayer(nil)
	if err := warm(rp); err != nil {
		return nil, err
	}
	res.tracer = &tracer{epoch: time.Now(), spans: make([]span, 0, 8*res.n)}
	rp.t = res.tracer
	start = time.Now()
	for i := 0; i < res.n; i++ {
		if err := rp.run(&reqs[i]); err != nil {
			return nil, err
		}
	}
	res.traced = time.Since(start)
	res.summary = res.tracer.summarize()
	return res, nil
}

// layerNames lists the traced layers in a stable order, for printing.
func (s traceSummary) layerNames() []string {
	names := make([]string, 0, len(s.layers))
	for n := range s.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
