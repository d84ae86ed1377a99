// Package route implements channel routing for placed ParchMint devices:
// three grid maze routers (Lee breadth-first, A*, and Hadlock detour-count)
// behind one interface, a sequential multi-terminal net router with
// configurable net ordering, and history-cost rip-up-and-reroute. Routed
// nets become ParchMint channel features; completion rate, total channel
// length, and node expansions are the quality metrics the router-comparison
// experiment (Fig. 4) reports.
package route

import (
	"context"
	"fmt"

	"repro/internal/geom"
	"repro/internal/obs"
)

// Router finds a path on an occupancy grid from any of a set of source
// cells (the already-routed tree of the net) to a target cell.
type Router interface {
	// Name identifies the engine in experiment output.
	Name() string
	// Search returns the path from one source to the target (inclusive on
	// both ends), and the number of node expansions performed. ok is false
	// when no path exists; the expansion count is still meaningful.
	// The context is request-scoped: engines poll it every ExpansionBatch
	// node expansions and abandon the search (ok false) when cancelled;
	// RouteAll turns the cancellation into an error.
	Search(ctx context.Context, g *geom.Grid, sources []geom.Cell, target geom.Cell) (path []geom.Cell, expansions int, ok bool)
}

// ExpansionBatch is the routers' cancellation granularity: each engine
// polls the context every ExpansionBatch node expansions, so a cancelled
// request abandons an in-flight maze search within one batch.
const ExpansionBatch = 1024

// searchObs batches one search's telemetry: each engine flushes the
// expansion and frontier-push deltas since the previous flush at its
// ExpansionBatch poll points and once more on return. The struct lives on
// the searching goroutine's stack and the recorder is nil when telemetry
// is disabled, so the hot loop pays one nil check per batch.
type searchObs struct {
	rec      *obs.Recorder
	engine   string
	lastExp  int
	lastPush int
}

func newSearchObs(ctx context.Context, engine string) searchObs {
	return searchObs{rec: obs.FromContext(ctx), engine: engine}
}

func (so *searchObs) flush(expansions, pushes int) {
	so.rec.RouteBatch(so.engine, expansions-so.lastExp, pushes-so.lastPush)
	so.lastExp, so.lastPush = expansions, pushes
}

// Engines returns the three routers in comparison order.
func Engines() []Router {
	return []Router{Lee{}, AStar{}, Hadlock{}}
}

// EngineByName resolves a routing engine by its Name. The empty string
// selects the default engine (A*).
func EngineByName(name string) (Router, error) {
	if name == "" {
		return AStar{}, nil
	}
	for _, e := range Engines() {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("route: unknown router %q (lee, astar, hadlock)", name)
}

// passable reports whether the router may enter cell c while hunting for
// target: blocked cells are closed except the target itself (targets are
// ports sitting on component boundaries, whose cells are blocked by the
// component footprint).
func passable(g *geom.Grid, c, target geom.Cell) bool {
	return c == target || !g.Blocked(c)
}

// Lee is the classic breadth-first maze router: uniform wavefront
// expansion, guaranteed shortest path, maximal expansions.
type Lee struct{}

// Name identifies the engine.
func (Lee) Name() string { return "lee" }

// Search runs breadth-first wavefront expansion.
func (Lee) Search(ctx context.Context, g *geom.Grid, sources []geom.Cell, target geom.Cell) ([]geom.Cell, int, bool) {
	a := acquireArena(g)
	defer a.release()
	so := newSearchObs(ctx, "lee")
	pushes := 0
	for _, s := range sources {
		if !g.InBounds(s) {
			continue
		}
		if i := a.index(s); !a.visited(i) {
			a.visit(i)
			a.parent[i] = -2
			a.queue = append(a.queue, s)
			pushes++
		}
	}
	expansions := 0
	for head := 0; head < len(a.queue); head++ {
		cur := a.queue[head]
		if expansions%ExpansionBatch == 0 {
			so.flush(expansions, pushes)
			if ctx.Err() != nil {
				return nil, expansions, false
			}
		}
		expansions++
		if cur == target {
			so.flush(expansions, pushes)
			return a.unwind(cur), expansions, true
		}
		ci := a.index(cur)
		a.scratch = g.Neighbors4(a.scratch[:0], cur)
		for _, nb := range a.scratch {
			if !passable(g, nb, target) {
				continue
			}
			if i := a.index(nb); !a.visited(i) {
				a.visit(i)
				a.parent[i] = ci
				a.queue = append(a.queue, nb)
				pushes++
			}
		}
	}
	so.flush(expansions, pushes)
	return nil, expansions, false
}

// pqItem is one frontier entry of the best-first engines.
type pqItem struct {
	cell geom.Cell
	prio int64
	g    int64 // cost so far
	seq  int64 // FIFO tiebreak for determinism
}

// AStar is best-first search with the Manhattan-distance heuristic:
// shortest paths like Lee, with far fewer expansions on open dies.
type AStar struct{}

// Name identifies the engine.
func (AStar) Name() string { return "astar" }

// Search runs A* from the source set toward the target.
func (AStar) Search(ctx context.Context, g *geom.Grid, sources []geom.Cell, target geom.Cell) ([]geom.Cell, int, bool) {
	a := acquireArena(g)
	defer a.release()
	h := func(c geom.Cell) int64 {
		dx := int64(c.Col - target.Col)
		if dx < 0 {
			dx = -dx
		}
		dy := int64(c.Row - target.Row)
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	}
	so := newSearchObs(ctx, "astar")
	// seq doubles as the frontier push count: it increments at every
	// heapPush and nowhere else.
	var seq int64
	for _, s := range sources {
		if !g.InBounds(s) {
			continue
		}
		if i := a.index(s); !a.visited(i) {
			a.visit(i)
			a.dist[i] = 0
			a.parent[i] = -2
			a.heapPush(pqItem{cell: s, prio: h(s), g: 0, seq: seq})
			seq++
		}
	}
	expansions := 0
	for a.heapLen() > 0 {
		it := a.heapPop()
		i := a.index(it.cell)
		if it.g > a.dist[i] {
			continue // stale entry
		}
		if expansions%ExpansionBatch == 0 {
			so.flush(expansions, int(seq))
			if ctx.Err() != nil {
				return nil, expansions, false
			}
		}
		expansions++
		if it.cell == target {
			so.flush(expansions, int(seq))
			return a.unwind(it.cell), expansions, true
		}
		a.scratch = g.Neighbors4(a.scratch[:0], it.cell)
		for _, nb := range a.scratch {
			if !passable(g, nb, target) {
				continue
			}
			ni := a.index(nb)
			ng := it.g + 1 + int64(g.Cost(nb))
			if !a.visited(ni) || ng < a.dist[ni] {
				a.visit(ni)
				a.dist[ni] = ng
				a.parent[ni] = i
				a.heapPush(pqItem{cell: nb, prio: ng + h(nb), g: ng, seq: seq})
				seq++
			}
		}
	}
	so.flush(expansions, int(seq))
	return nil, expansions, false
}

// Hadlock is detour-count best-first search: priority is the number of
// moves made away from the target. It expands fewer cells than Lee while
// still guaranteeing shortest paths on uniform grids; implemented as 0-1
// BFS over the detour metric.
type Hadlock struct{}

// Name identifies the engine.
func (Hadlock) Name() string { return "hadlock" }

// Search runs 0-1 breadth-first search on detour counts.
func (Hadlock) Search(ctx context.Context, g *geom.Grid, sources []geom.Cell, target geom.Cell) ([]geom.Cell, int, bool) {
	a := acquireArena(g)
	defer a.release()
	manhattan := func(c geom.Cell) int {
		dx := c.Col - target.Col
		if dx < 0 {
			dx = -dx
		}
		dy := c.Row - target.Row
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	}
	so := newSearchObs(ctx, "hadlock")
	pushes := 0
	// Level queues for 0-1 BFS over the detour count: toward-moves stay in
	// the current level, away-moves wait in the next one.
	for _, s := range sources {
		if !g.InBounds(s) {
			continue
		}
		if i := a.index(s); !a.visited(i) {
			a.visit(i)
			a.detour[i] = 0
			a.parent[i] = -2
			a.queue = append(a.queue, s)
			pushes++
		}
	}
	expansions := 0
	for len(a.queue) > 0 {
		for head := 0; head < len(a.queue); head++ {
			cur := a.queue[head]
			ci := a.index(cur)
			if expansions%ExpansionBatch == 0 {
				so.flush(expansions, pushes)
				if ctx.Err() != nil {
					return nil, expansions, false
				}
			}
			expansions++
			if cur == target {
				so.flush(expansions, pushes)
				return a.unwind(cur), expansions, true
			}
			curDetour := a.detour[ci]
			curDist := manhattan(cur)
			a.scratch = g.Neighbors4(a.scratch[:0], cur)
			for _, nb := range a.scratch {
				if !passable(g, nb, target) {
					continue
				}
				ni := a.index(nb)
				away := int32(0)
				if manhattan(nb) > curDist {
					away = 1
				}
				nd := curDetour + away
				if !a.visited(ni) || nd < a.detour[ni] {
					a.visit(ni)
					a.detour[ni] = nd
					a.parent[ni] = ci
					if away == 0 {
						a.queue = append(a.queue, nb)
					} else {
						a.next = append(a.next, nb)
					}
					pushes++
				}
			}
		}
		a.queue, a.next = a.next, a.queue[:0]
	}
	so.flush(expansions, pushes)
	return nil, expansions, false
}
