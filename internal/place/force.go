package place

import (
	"context"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
)

// ForceDirected is the quadratic-style engine: each iteration moves every
// component toward the centroid of the components it shares nets with
// (attractive force only), then the final layout is shelf-legalized. It
// sits between the greedy baseline and annealing in both cost and quality.
type ForceDirected struct{}

// Name identifies the engine.
func (ForceDirected) Name() string { return "force" }

// Iterations is the fixed relaxation count; convergence on suite-sized
// devices happens well before this.
const forceIterations = 60

// Place runs attraction relaxation followed by legalization, polling the
// context once per relaxation iteration.
func (ForceDirected) Place(ctx context.Context, d *core.Device, opts Options) (*Placement, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	die := opts.Die(d)
	p, err := greedyPlace(d, die)
	if err != nil {
		return nil, err
	}
	if len(d.Components) < 2 {
		return p, nil
	}

	// Adjacency with multiplicity: components sharing several nets attract
	// proportionally harder.
	adj := make(map[string][]string)
	for i := range d.Connections {
		cn := &d.Connections[i]
		for _, s := range cn.Sinks {
			if s.Component == cn.Source.Component {
				continue
			}
			adj[cn.Source.Component] = append(adj[cn.Source.Component], s.Component)
			adj[s.Component] = append(adj[s.Component], cn.Source.Component)
		}
	}

	// Anchor the periphery: chip IO ports stay where greedy put them so the
	// relaxation cannot collapse everything to one centroid.
	anchored := make(map[string]bool)
	for i := range d.Components {
		if d.Components[i].Entity == core.EntityPort {
			anchored[d.Components[i].ID] = true
		}
	}

	centers := make(map[string]geom.Point, len(d.Components))
	for i := range d.Components {
		c := &d.Components[i]
		if r, ok := p.Footprint(c); ok {
			centers[c.ID] = r.Center()
		}
	}

	ids := make([]string, 0, len(centers))
	for id := range centers {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	for iter := 0; iter < forceIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next := make(map[string]geom.Point, len(centers))
		for _, id := range ids {
			cur := centers[id]
			nbs := adj[id]
			if anchored[id] || len(nbs) == 0 {
				next[id] = cur
				continue
			}
			var sx, sy int64
			for _, nb := range nbs {
				np, ok := centers[nb]
				if !ok {
					np = cur
				}
				sx += np.X
				sy += np.Y
			}
			target := geom.Pt(sx/int64(len(nbs)), sy/int64(len(nbs)))
			// Move halfway toward the neighborhood centroid: damped update
			// keeps the relaxation stable.
			next[id] = geom.Pt(cur.X+(target.X-cur.X)/2, cur.Y+(target.Y-cur.Y)/2)
		}
		centers = next
	}

	// Convert centers back to origins, clamped to the die.
	relaxed := &Placement{Device: d, Die: die, Origins: make(map[string]geom.Point, len(centers))}
	for i := range d.Components {
		c := &d.Components[i]
		ctr, ok := centers[c.ID]
		if !ok {
			continue
		}
		o := geom.Pt(ctr.X-c.XSpan/2, ctr.Y-c.YSpan/2)
		o = clampToDie(o, c, die)
		relaxed.Origins[c.ID] = o
	}
	legal := Legalize(relaxed)
	if err := CheckLegal(legal); err != nil {
		return nil, err
	}
	return legal, nil
}

func clampToDie(o geom.Point, c *core.Component, die geom.Rect) geom.Point {
	maxX := die.Max.X - c.XSpan
	maxY := die.Max.Y - c.YSpan
	if o.X < die.Min.X {
		o.X = die.Min.X
	}
	if o.Y < die.Min.Y {
		o.Y = die.Min.Y
	}
	if o.X > maxX {
		o.X = maxX
	}
	if o.Y > maxY {
		o.Y = maxY
	}
	return o
}
