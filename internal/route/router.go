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
	"math"

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

// maze is the view of one search that the engines share: the grid's
// padded occupancy and cost arrays, its stride, and the target's padded
// index (-1 when the target lies outside the grid, so it matches no
// cell). Every engine expands a cell ci by stepping to ci+1, ci-1,
// ci+stride and ci-stride, in that order (col+1, col-1, row+1, row-1);
// the blocked ring around the grid keeps every step in bounds. Blocked
// cells are closed except the target itself (targets are ports sitting
// on component boundaries, whose cells are blocked by the component
// footprint).
//
// For the geometric engines it also holds the target's column and row
// clamped to [-1, cols] and [-1, rows], which keeps every comparison
// against a cell's column and row exact while the padded-index
// thresholds below stay small: a cell is at or below the target row iff
// its index is >= rowFrom, and at or above it iff its index is < rowTo.
// Those comparisons say which steps move away from the target (raise the
// Manhattan distance): a +col step does iff col >= tcol, that is
// ci % stride >= tcol1, a -col step iff col <= tcol, a +row step iff
// ci >= rowFrom and a -row step iff ci < rowTo.
type maze struct {
	blocked []bool
	cost    []int32
	stride  int32
	target  int32
	tcol1   int32 // clamped target column + 1, comparable to i % stride
	rowFrom int32
	rowTo   int32
}

func newMaze(g *geom.Grid, target geom.Cell) maze {
	blocked, cost := g.Occupancy()
	stride := int32(g.Stride())
	tcol := int32(min(max(target.Col, -1), g.Cols()))
	trow := int32(min(max(target.Row, -1), g.Rows()))
	return maze{
		blocked: blocked,
		cost:    cost,
		stride:  stride,
		target:  g.PaddedIndex(target),
		tcol1:   tcol + 1,
		rowFrom: (trow + 1) * stride,
		rowTo:   (trow + 2) * stride,
	}
}

// passable reports whether the search may enter padded index i.
func (m *maze) passable(i int32) bool { return !m.blocked[i] || i == m.target }

// Lee is the classic breadth-first maze router: uniform wavefront
// expansion, guaranteed shortest path, maximal expansions.
type Lee struct{}

// Name identifies the engine.
func (Lee) Name() string { return "lee" }

// Search runs breadth-first wavefront expansion.
func (Lee) Search(ctx context.Context, g *geom.Grid, sources []geom.Cell, target geom.Cell) ([]geom.Cell, int, bool) {
	a := acquireArena(g)
	defer a.release()
	m := newMaze(g, target)
	so := newSearchObs(ctx, "lee")
	pushes := 0
	for _, s := range sources {
		if i := g.PaddedIndex(s); i >= 0 && !a.visited(i) {
			a.label(i, -2, 0)
			a.queue = append(a.queue, i)
			pushes++
		}
	}
	expansions := 0
	for head := 0; head < len(a.queue); head++ {
		ci := a.queue[head]
		if expansions%ExpansionBatch == 0 {
			so.flush(expansions, pushes)
			if ctx.Err() != nil {
				return nil, expansions, false
			}
		}
		expansions++
		if ci == m.target {
			so.flush(expansions, pushes)
			return a.unwind(g, ci), expansions, true
		}
		pushes += a.leeStep(&m, ci, ci+1)
		pushes += a.leeStep(&m, ci, ci-1)
		pushes += a.leeStep(&m, ci, ci+m.stride)
		pushes += a.leeStep(&m, ci, ci-m.stride)
	}
	so.flush(expansions, pushes)
	return nil, expansions, false
}

// AStar is best-first search with the Manhattan-distance heuristic:
// shortest paths like Lee, with far fewer expansions on open dies.
//
// The frontier is a monotone bucket queue (Dial's algorithm): FIFO
// buckets indexed by prio - base, where prio = g + h and base is the
// smallest h over the sources. Step costs are 1 + Cost >= 1 and the
// Manhattan heuristic changes by exactly 1 per step, so no push lands
// below the bucket being expanded, and popping the lowest bucket in FIFO
// order is exactly the (prio, push order) order of a binary heap.
type AStar struct{}

// Name identifies the engine.
func (AStar) Name() string { return "astar" }

// Search runs A* from the source set toward the target.
func (AStar) Search(ctx context.Context, g *geom.Grid, sources []geom.Cell, target geom.Cell) ([]geom.Cell, int, bool) {
	a := acquireArena(g)
	defer a.release()
	m := newMaze(g, target)
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
	base := int64(math.MaxInt64)
	for _, s := range sources {
		if g.InBounds(s) {
			base = min(base, h(s))
		}
	}
	pushes := 0
	for _, s := range sources {
		if i := g.PaddedIndex(s); i >= 0 && !a.visited(i) {
			a.label(i, -2, 0)
			a.bucketPush(int(h(s)-base), i, 0)
			pushes++
		}
	}
	expansions := 0
	for b := 0; b < len(a.head); b++ {
		// Pushes into bucket b while it drains extend the list being
		// walked, so the next link is read after the expansion.
		for k := a.head[b]; k >= 0; k = a.items[k].next {
			it := a.items[k]
			ci := it.cell
			if it.g > a.cells[ci].cost {
				continue // stale entry
			}
			if expansions%ExpansionBatch == 0 {
				so.flush(expansions, pushes)
				if ctx.Err() != nil {
					return nil, expansions, false
				}
			}
			expansions++
			if ci == m.target {
				so.flush(expansions, pushes)
				return a.unwind(g, ci), expansions, true
			}
			// Bucket b holds prio base+b, and h(cur) = prio - g.
			hcur := base + int64(b) - it.g
			c1 := ci % m.stride
			pushes += a.astarStep(&m, ci, ci+1, it.g, hcur, base, c1 >= m.tcol1)
			pushes += a.astarStep(&m, ci, ci-1, it.g, hcur, base, c1 <= m.tcol1)
			pushes += a.astarStep(&m, ci, ci+m.stride, it.g, hcur, base, ci >= m.rowFrom)
			pushes += a.astarStep(&m, ci, ci-m.stride, it.g, hcur, base, ci < m.rowTo)
		}
	}
	so.flush(expansions, pushes)
	return nil, expansions, false
}

// Hadlock is detour-count best-first search: priority is the number of
// moves made away from the target, implemented as 0-1 BFS over the detour
// metric; cell costs do not enter it. It expands fewer cells than Lee.
// With one source its path has the fewest cells, since a path's length is
// the source's Manhattan distance plus twice its detours. With several
// sources (every sink after the first of a multi-terminal net searches
// from the whole route tree) it minimizes detours relative to the source
// a path leaves, which is not length: a far source with a straight run
// beats a near one whose run needs a detour (see TestSearchMultiSource).
type Hadlock struct{}

// Name identifies the engine.
func (Hadlock) Name() string { return "hadlock" }

// Search runs 0-1 breadth-first search on detour counts.
func (Hadlock) Search(ctx context.Context, g *geom.Grid, sources []geom.Cell, target geom.Cell) ([]geom.Cell, int, bool) {
	a := acquireArena(g)
	defer a.release()
	m := newMaze(g, target)
	so := newSearchObs(ctx, "hadlock")
	pushes := 0
	// Level queues for 0-1 BFS over the detour count: toward-moves stay in
	// the current level, away-moves wait in the next one.
	for _, s := range sources {
		if i := g.PaddedIndex(s); i >= 0 && !a.visited(i) {
			a.label(i, -2, 0)
			a.queue = append(a.queue, i)
			pushes++
		}
	}
	expansions := 0
	for len(a.queue) > 0 {
		for head := 0; head < len(a.queue); head++ {
			ci := a.queue[head]
			if expansions%ExpansionBatch == 0 {
				so.flush(expansions, pushes)
				if ctx.Err() != nil {
					return nil, expansions, false
				}
			}
			expansions++
			if ci == m.target {
				so.flush(expansions, pushes)
				return a.unwind(g, ci), expansions, true
			}
			d := a.cells[ci].cost
			c1 := ci % m.stride
			pushes += a.hadlockStep(&m, ci, ci+1, d, c1 >= m.tcol1)
			pushes += a.hadlockStep(&m, ci, ci-1, d, c1 <= m.tcol1)
			pushes += a.hadlockStep(&m, ci, ci+m.stride, d, ci >= m.rowFrom)
			pushes += a.hadlockStep(&m, ci, ci-m.stride, d, ci < m.rowTo)
		}
		a.queue, a.next = a.next, a.queue[:0]
	}
	so.flush(expansions, pushes)
	return nil, expansions, false
}

// The step functions try one move of an expansion, from ci to its
// neighbor ni, and return the number of frontier pushes it made (0 or 1).
// Each engine spells out its four calls: against a loop over an offset
// table, that ran hadlock RouteAll on the jobs_journal devices about 15%
// faster on a 2-vCPU x86-64 VM.

// leeStep enters ni unless it is closed or already reached.
func (a *searchArena) leeStep(m *maze, ci, ni int32) int {
	c := &a.cells[ni]
	if !m.passable(ni) || c.stamp == a.gen {
		return 0
	}
	*c = cellLabel{stamp: a.gen, parent: ci}
	a.queue = append(a.queue, ni)
	return 1
}

// astarStep relaxes ni with cost g + 1 + Cost(ni) and pushes it into the
// bucket of its priority, its heuristic being hcur ± 1.
func (a *searchArena) astarStep(m *maze, ci, ni int32, g, hcur, base int64, away bool) int {
	if !m.passable(ni) {
		return 0
	}
	ng := g + 1 + int64(m.cost[ni])
	c := &a.cells[ni]
	if c.stamp == a.gen && ng >= c.cost {
		return 0
	}
	*c = cellLabel{stamp: a.gen, parent: ci, cost: ng}
	hn := hcur - 1
	if away {
		hn = hcur + 1
	}
	a.bucketPush(int(ng+hn-base), ni, ng)
	return 1
}

// hadlockStep relaxes ni with detour count d (plus one for an away move),
// queueing it in the current level, or the next one after an away move.
func (a *searchArena) hadlockStep(m *maze, ci, ni int32, d int64, away bool) int {
	if !m.passable(ni) {
		return 0
	}
	if away {
		d++
	}
	c := &a.cells[ni]
	if c.stamp == a.gen && d >= c.cost {
		return 0
	}
	*c = cellLabel{stamp: a.gen, parent: ci, cost: d}
	if away {
		a.next = append(a.next, ni)
	} else {
		a.queue = append(a.queue, ni)
	}
	return 1
}
