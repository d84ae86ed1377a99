package place

import (
	"context"

	"repro/internal/core"
	"repro/internal/geom"
)

// Greedy is the baseline engine: it shelf-packs components onto the die in
// connectivity (BFS) order, with no optimization. It is deterministic,
// runs in linear time, and gives the comparison floor the annealing and
// force-directed engines are measured against.
type Greedy struct{}

// Name identifies the engine.
func (Greedy) Name() string { return "greedy" }

// Place packs the components onto shelves in BFS order. The constructive
// pass is single-shot, so the context is only checked on entry.
func (Greedy) Place(ctx context.Context, d *core.Device, opts Options) (*Placement, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return greedyPlace(d, opts.Die(d))
}

// greedyPlace shelf-packs in BFS order; the randomized engines also use it
// as their legal starting point.
func greedyPlace(d *core.Device, die geom.Rect) (*Placement, error) {
	p := &Placement{Device: d, Die: die, Origins: make(map[string]geom.Point, len(d.Components))}
	var x, y, shelfH int64
	for _, c := range orderedComponents(d) {
		w := c.XSpan + Spacing
		h := c.YSpan + Spacing
		if x > 0 && x+w > die.Dx() {
			x = 0
			y += shelfH
			shelfH = 0
		}
		p.Origins[c.ID] = geom.Pt(die.Min.X+x+Spacing/2, die.Min.Y+y+Spacing/2)
		x += w
		if h > shelfH {
			shelfH = h
		}
	}
	if err := CheckLegal(p); err != nil {
		return nil, err
	}
	return p, nil
}
