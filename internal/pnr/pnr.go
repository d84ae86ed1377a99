// Package pnr combines placement and routing into the end-to-end physical
// design flow for ParchMint devices: place the components, route the
// channels, and write the resulting geometry back into the device as
// ParchMint features. This is the algorithmic consumer the benchmark suite
// exists to exercise.
package pnr

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/route"
)

// Flow stage names reported to Options.Observe, in execution order.
const (
	StagePlace  = "place"
	StageRoute  = "route"
	StageAttach = "attach"
)

// Stages lists the flow's stage names in execution order.
func Stages() []string { return []string{StagePlace, StageRoute, StageAttach} }

// Options configures the flow.
type Options struct {
	// Placer is the placement engine; nil means the annealer.
	Placer place.Placer
	// Router is the routing engine; nil means A*.
	Router route.Router
	// Place and Route tune the respective stages.
	Place place.Options
	Route route.Options
	// Observe, when non-nil, receives each stage's wall-clock duration as
	// the stage completes (stage names: StagePlace, StageRoute,
	// StageAttach). A stage aborted by an error or cancellation reports
	// its partial duration — every started stage is observed exactly once.
	// This hook is the repository's one source of stage durations: the
	// timing pseudo-experiment (experiments.TimingTable) and the HTTP
	// service (stage metrics, job progress) use it to profile the flow
	// without the flow knowing about them.
	Observe func(stage string, d time.Duration)
}

// Option mutates an Options value; see NewOptions.
type Option func(*Options)

// NewOptions builds flow options from functional settings over the
// defaults (annealer + A*). It is the constructor call sites should
// prefer to positional struct literals: the server, the CLIs, and the
// experiment harness all describe a flow the same way, and new knobs
// never break existing constructors.
func NewOptions(opts ...Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithPlacer selects the placement engine (nil keeps the annealer).
func WithPlacer(p place.Placer) Option { return func(o *Options) { o.Placer = p } }

// WithRouter selects the routing engine (nil keeps A*).
func WithRouter(r route.Router) Option { return func(o *Options) { o.Router = r } }

// WithSeed seeds the randomized placement stage.
func WithSeed(seed uint64) Option { return func(o *Options) { o.Place.Seed = seed } }

// WithUtilization sets the die utilization fraction (0 < u <= 1).
func WithUtilization(u float64) Option { return func(o *Options) { o.Place.Utilization = u } }

// WithOrdering selects the net routing order.
func WithOrdering(ord route.Order) Option { return func(o *Options) { o.Route.Ordering = ord } }

// WithReplicas sets the annealer's parallel-tempering replica count.
// Values below 2 keep the classic single-replica schedule. The replica
// count selects the search — N replicas give a different (usually better)
// placement than one — but for a fixed N the artifact is byte-identical
// at any worker count.
func WithReplicas(n int) Option { return func(o *Options) { o.Place.Replicas = n } }

// WithObserver installs a stage-duration hook.
func WithObserver(fn func(stage string, d time.Duration)) Option {
	return func(o *Options) { o.Observe = fn }
}

// observe times one stage when a hook is installed.
func (o Options) observe(stage string, start time.Time) {
	if o.Observe != nil {
		o.Observe(stage, time.Since(start))
	}
}

// Result is the outcome of one flow run.
type Result struct {
	// Device is a copy of the input with physical features attached.
	Device *core.Device
	// Placement is the legal placement used.
	Placement *place.Placement
	// PlaceMetrics are the placement quality numbers.
	PlaceMetrics place.Metrics
	// RouteReport is the routing outcome.
	RouteReport *route.Report
}

// Run executes place-then-route with a background context; see RunContext.
func Run(d *core.Device, opts Options) (*Result, error) {
	return RunContext(context.Background(), d, opts)
}

// RunContext executes place-then-route on a device and returns a
// feature-annotated copy. The input device is not modified. The context is
// request-scoped: cancellation aborts annealing within one move batch and
// maze searches within one expansion batch, and the returned error then
// wraps ctx.Err().
func RunContext(ctx context.Context, d *core.Device, opts Options) (*Result, error) {
	placer := opts.Placer
	if placer == nil {
		placer = place.Annealer{}
	}
	router := opts.Router
	if router == nil {
		router = route.AStar{}
	}
	ctx, flow := obs.Start(ctx, "pnr.flow")
	flow.SetAttr("device", d.Name)
	defer flow.End()

	// Bound the work before placing: a die whose routing grid would exceed
	// geom.MaxGridCells is rejected here, not after minutes of work.
	if err := route.CheckGrid(opts.Place.Die(d), opts.Route); err != nil {
		return nil, fmt.Errorf("pnr: %w", err)
	}

	// Each started stage is observed exactly once: on success with its full
	// duration, on error or cancellation with the partial duration up to the
	// abort. Telemetry spans mirror the same timing but are a separate sink,
	// so stage seconds are never counted twice.
	start := time.Now()
	pctx, sp := obs.Start(ctx, "place."+placer.Name())
	p, err := placer.Place(pctx, d, opts.Place)
	if err == nil {
		sp.SetAttr("moves", p.Moves)
	}
	sp.End()
	opts.observe(StagePlace, start)
	if err != nil {
		return nil, fmt.Errorf("pnr: placement (%s): %w", placer.Name(), err)
	}

	start = time.Now()
	rctx, sr := obs.Start(ctx, "route."+router.Name())
	report, err := route.RouteAll(rctx, p, router, opts.Route)
	if err == nil {
		sr.SetAttr("routed", report.Routed())
		sr.SetAttr("expansions", report.TotalExpansions())
	}
	sr.End()
	opts.observe(StageRoute, start)
	if err != nil {
		return nil, fmt.Errorf("pnr: routing (%s): %w", router.Name(), err)
	}

	start = time.Now()
	_, sa := obs.Start(ctx, "pnr.attach")
	out := d.Clone()
	out.Features = append(place.ToFeatures(p), report.Features()...)
	out.AttachPaths()
	attachValveMap(out)
	sa.End()
	opts.observe(StageAttach, start)
	return &Result{
		Device:       out,
		Placement:    p,
		PlaceMetrics: place.Evaluate(p),
		RouteReport:  report,
	}, nil
}

// attachValveMap synthesizes the v1.2 valve map: each valve or pump is
// recorded as actuating the connection feeding its first flow port.
// Monolithic membrane valves are normally open (actuation closes them).
func attachValveMap(d *core.Device) {
	// Connection arriving at each (component, port).
	feeds := make(map[string]string)
	for i := range d.Connections {
		cn := &d.Connections[i]
		for _, t := range cn.Sinks {
			key := t.Component + "\x00" + t.Port
			if _, ok := feeds[key]; !ok {
				feeds[key] = cn.ID
			}
		}
	}
	for i := range d.Components {
		c := &d.Components[i]
		if !core.IsControlEntity(c.Entity) {
			continue
		}
		for _, port := range c.Ports {
			if cn, ok := feeds[c.ID+"\x00"+port.Label]; ok {
				// SetValve validates both references; ignore failures on
				// malformed devices (the validator reports them).
				_ = d.SetValve(c.ID, cn, core.ValveNormallyOpen)
				break
			}
		}
	}
}
