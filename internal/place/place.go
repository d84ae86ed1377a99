// Package place implements device placement for ParchMint netlists: three
// engines (greedy shelf baseline, force-directed, simulated annealing) over
// a shared cost model, plus legalization and evaluation. Placement assigns
// every component an origin on the die; the half-perimeter wire length
// (HPWL) of the nets and the bounding-box area of the result are the
// quality metrics the algorithm-comparison experiment (Fig. 3) reports.
package place

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
)

// Spacing is the minimum clearance kept between component footprints, in
// micrometers, matching the suite's default channel routing pitch.
const Spacing = 400

// Placement is the result of placing one device: an origin (top-left
// corner) for every component.
type Placement struct {
	// Device is the placed netlist (not modified by placement).
	Device *core.Device
	// Origins maps component ID to its placed origin.
	Origins map[string]geom.Point
	// Die is the region the placer targeted.
	Die geom.Rect
	// Moves counts the optimization moves the engine proposed to reach
	// this placement (0 for constructive engines). It is a deterministic
	// function of the device and seed — the work metric the runtime-scaling
	// experiment reports instead of wall-clock time.
	Moves int
}

// Footprint returns the placed rectangle of a component, or false when the
// component has no origin.
func (p *Placement) Footprint(c *core.Component) (geom.Rect, bool) {
	o, ok := p.Origins[c.ID]
	if !ok {
		return geom.Rect{}, false
	}
	return c.Footprint(o), true
}

// PortPosition returns the absolute position of a port on a placed
// component.
func (p *Placement) PortPosition(c *core.Component, port core.Port) (geom.Point, bool) {
	o, ok := p.Origins[c.ID]
	if !ok {
		return geom.Point{}, false
	}
	return o.Add(port.Point()), true
}

// Clone returns a deep copy sharing the device.
func (p *Placement) Clone() *Placement {
	out := &Placement{Device: p.Device, Die: p.Die, Moves: p.Moves, Origins: make(map[string]geom.Point, len(p.Origins))}
	for k, v := range p.Origins {
		out.Origins[k] = v
	}
	return out
}

// Options tunes the placement engines.
type Options struct {
	// Seed drives the randomized engines.
	Seed uint64
	// Utilization is the fraction of die area the components should fill
	// (0 < u <= 1). Zero means the default 0.35.
	Utilization float64
	// CoolingRate is the annealer's geometric cooling rate (0 < r < 1);
	// zero takes the default (see anneal.go).
	CoolingRate float64
	// Replicas selects multi-replica parallel tempering for the annealer:
	// N replicas share each temperature level's move budget and exchange
	// states deterministically at level boundaries (see parallel.go).
	// Values <= 1 keep the classic single-replica schedule. The result is
	// a pure function of (device, options, seed, Replicas) — never of how
	// many goroutines executed the replicas.
	Replicas int
}

// replicas resolves the replica count: anything below 2 is the sequential
// single-replica schedule.
func (o Options) replicas() int {
	if o.Replicas < 2 {
		return 1
	}
	return o.Replicas
}

func (o Options) utilization() float64 {
	if o.Utilization <= 0 || o.Utilization > 1 {
		return 0.35
	}
	return o.Utilization
}

// Die returns the die every placement engine places d on under these
// options: DieFor at the resolved utilization.
func (o Options) Die(d *core.Device) geom.Rect { return DieFor(d, o.utilization()) }

// Option mutates an Options value; see NewOptions.
type Option func(*Options)

// NewOptions builds placement options from functional settings over the
// documented defaults. It is the constructor call sites should prefer to
// positional struct literals: unset knobs keep their default semantics
// and new knobs never break existing constructors.
func NewOptions(opts ...Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithSeed sets the randomized engines' seed.
func WithSeed(seed uint64) Option { return func(o *Options) { o.Seed = seed } }

// WithUtilization sets the die utilization fraction (0 < u <= 1).
func WithUtilization(u float64) Option { return func(o *Options) { o.Utilization = u } }

// WithReplicas sets the annealer's parallel-tempering replica count
// (<= 1 selects the classic single-replica schedule).
func WithReplicas(n int) Option { return func(o *Options) { o.Replicas = n } }

// Placer is a placement engine.
type Placer interface {
	// Name identifies the engine in experiment output.
	Name() string
	// Place computes a legal (overlap-free) placement. The context is
	// request-scoped: iterative engines poll it and abort with ctx.Err()
	// when it is cancelled (the annealer within one move batch).
	Place(ctx context.Context, d *core.Device, opts Options) (*Placement, error)
}

// Engines returns the three engines in comparison order: baseline first.
func Engines() []Placer {
	return []Placer{Greedy{}, ForceDirected{}, Annealer{}}
}

// EngineByName resolves a placement engine by its Name. The empty string
// selects the default engine (the annealer).
func EngineByName(name string) (Placer, error) {
	if name == "" {
		return Annealer{}, nil
	}
	for _, e := range Engines() {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("place: unknown placer %q (greedy, force, anneal)", name)
}

// Anneal runs the annealing engine with constructor-style options — the
// preferred entry point over building an Options literal by hand.
func Anneal(ctx context.Context, d *core.Device, opts ...Option) (*Placement, error) {
	return Annealer{}.Place(ctx, d, NewOptions(opts...))
}

// DieFor computes the target die: a square sized so the padded component
// area fills the given utilization fraction.
func DieFor(d *core.Device, utilization float64) geom.Rect {
	var total int64
	for i := range d.Components {
		c := &d.Components[i]
		total += (c.XSpan + Spacing) * (c.YSpan + Spacing)
	}
	if total == 0 {
		total = Spacing * Spacing
	}
	side := int64(math.Ceil(math.Sqrt(float64(total) / utilization)))
	return geom.R(0, 0, side, side)
}

// netPins resolves the pin positions of one connection under a placement.
// Unresolvable endpoints are skipped (the validator reports them).
func netPins(p *Placement, ix *core.Index, cn *core.Connection) []geom.Point {
	pins := make([]geom.Point, 0, 1+len(cn.Sinks))
	for _, t := range cn.Targets() {
		c, port, ok := ix.ResolveTarget(t)
		if !ok {
			continue
		}
		if pos, ok := p.PortPosition(c, port); ok {
			pins = append(pins, pos)
		}
	}
	return pins
}

// Metrics summarizes placement quality.
type Metrics struct {
	// HPWL is the total half-perimeter wire length over all nets, in µm.
	HPWL int64
	// Area is the bounding-box area of all placed footprints, in µm².
	Area int64
	// Overlaps counts pairs of overlapping footprints (0 for legal output).
	Overlaps int
	// Placed counts components with origins.
	Placed int
}

// Evaluate computes the quality metrics of a placement.
func Evaluate(p *Placement) Metrics {
	ix := p.Device.Index()
	var m Metrics
	for i := range p.Device.Connections {
		m.HPWL += geom.HPWL(netPins(p, ix, &p.Device.Connections[i]))
	}
	var bbox geom.Rect
	rects := make([]geom.Rect, 0, len(p.Device.Components))
	for i := range p.Device.Components {
		r, ok := p.Footprint(&p.Device.Components[i])
		if !ok {
			continue
		}
		m.Placed++
		rects = append(rects, r)
		bbox = bbox.Union(r)
	}
	m.Area = bbox.Area()
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			if rects[i].Overlaps(rects[j]) {
				m.Overlaps++
			}
		}
	}
	return m
}

// Legalize removes all overlaps from a placement while approximately
// preserving relative positions: components are sorted by placed position
// and re-packed onto shelves. The result is returned as a new placement.
func Legalize(p *Placement) *Placement {
	d := p.Device
	type item struct {
		c *core.Component
		o geom.Point
	}
	items := make([]item, 0, len(d.Components))
	for i := range d.Components {
		c := &d.Components[i]
		o, ok := p.Origins[c.ID]
		if !ok {
			o = geom.Pt(0, 0)
		}
		items = append(items, item{c, o})
	}
	// Shelf packing in reading order of the current placement. Continuous
	// optimizer positions are quantized into horizontal bands of roughly
	// one average component height so that "same row, left to right" is
	// preserved; sorting on raw Y would interleave X positions of
	// components whose heights differ by a few micrometers.
	var bandH int64 = Spacing
	if len(items) > 0 {
		var sum int64
		for _, it := range items {
			sum += it.c.YSpan
		}
		bandH += sum / int64(len(items))
	}
	band := func(o geom.Point) int64 { return o.Y / bandH }
	sort.SliceStable(items, func(i, j int) bool {
		if band(items[i].o) != band(items[j].o) {
			return band(items[i].o) < band(items[j].o)
		}
		if items[i].o.X != items[j].o.X {
			return items[i].o.X < items[j].o.X
		}
		return items[i].c.ID < items[j].c.ID
	})
	die := p.Die
	if die.Empty() {
		die = DieFor(d, 0.35)
	}
	out := &Placement{Device: d, Die: die, Origins: make(map[string]geom.Point, len(items))}
	// Tetris-style packing that preserves the optimizer's coordinates when
	// room allows: rows advance to each band's desired top, and components
	// keep their desired x unless that would overlap the previous one.
	i := 0
	var y int64
	for i < len(items) {
		bandID := band(items[i].o)
		// Collect the band.
		j := i
		for j < len(items) && band(items[j].o) == bandID {
			j++
		}
		// The band's top: its members' minimum desired y, but never above
		// the previous band's bottom.
		top := items[i].o.Y
		for k := i; k < j; k++ {
			if items[k].o.Y < top {
				top = items[k].o.Y
			}
		}
		if top < y {
			top = y
		}
		var x, shelfH int64
		for k := i; k < j; k++ {
			it := items[k]
			w := it.c.XSpan + Spacing
			h := it.c.YSpan + Spacing
			// Honor the desired x when it does not collide or overflow.
			want := it.o.X - Spacing/2
			if want > x && want+w <= die.Dx() {
				x = want
			}
			if x+w > die.Dx() && x > 0 {
				// Band overflow: open a continuation shelf below.
				top += shelfH
				shelfH = 0
				x = 0
			}
			out.Origins[it.c.ID] = geom.Pt(die.Min.X+x+Spacing/2, die.Min.Y+top+Spacing/2)
			x += w
			if h > shelfH {
				shelfH = h
			}
		}
		y = top + shelfH
		i = j
	}
	return out
}

// CheckLegal verifies a placement is overlap-free and fully placed,
// returning a descriptive error otherwise. Engines call this before
// returning; it converts optimizer bugs into errors instead of corrupt
// experiment data.
func CheckLegal(p *Placement) error {
	m := Evaluate(p)
	if m.Placed != len(p.Device.Components) {
		return fmt.Errorf("place: %d of %d components placed", m.Placed, len(p.Device.Components))
	}
	if m.Overlaps > 0 {
		return fmt.Errorf("place: %d overlapping pairs after legalization", m.Overlaps)
	}
	return nil
}

// ToFeatures renders a placement as ParchMint component features, one per
// component on its first layer, ready to attach to the device.
func ToFeatures(p *Placement) []core.Feature {
	d := p.Device
	out := make([]core.Feature, 0, len(d.Components))
	for i := range d.Components {
		c := &d.Components[i]
		o, ok := p.Origins[c.ID]
		if !ok {
			continue
		}
		layer := ""
		if len(c.Layers) > 0 {
			layer = c.Layers[0]
		}
		out = append(out, core.Feature{
			Kind:     core.FeatureComponent,
			ID:       c.ID,
			Name:     c.Name,
			Layer:    layer,
			Location: o,
			XSpan:    c.XSpan,
			YSpan:    c.YSpan,
			Depth:    10,
		})
	}
	return out
}

// orderedComponents returns pointers to the device's components in a
// stable, connectivity-friendly order: BFS from the first IO port so
// adjacent components land near each other in greedy packing.
func orderedComponents(d *core.Device) []*core.Component {
	ix := d.Index()
	adj := make(map[string][]string)
	for i := range d.Connections {
		cn := &d.Connections[i]
		for _, s := range cn.Sinks {
			adj[cn.Source.Component] = append(adj[cn.Source.Component], s.Component)
			adj[s.Component] = append(adj[s.Component], cn.Source.Component)
		}
	}
	var order []*core.Component
	seen := make(map[string]bool, len(d.Components))
	var queue []string
	enqueue := func(id string) {
		if !seen[id] && ix.Component(id) != nil {
			seen[id] = true
			queue = append(queue, id)
		}
	}
	for i := range d.Components {
		if len(order)+len(queue) == len(d.Components) {
			break
		}
		enqueue(d.Components[i].ID)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			order = append(order, ix.Component(cur))
			for _, nb := range adj[cur] {
				enqueue(nb)
			}
		}
	}
	return order
}
