package route

import (
	"context"
	"sync"

	"repro/internal/geom"
)

// This file keeps the maze engines as they were before the int-indexed
// kernel: Cell-valued frontiers, bounds-checked neighbor enumeration and a
// (prio, seq) binary heap for A*. They are the reference the differential
// tests and FuzzMazeEngines hold the production engines to: same path,
// same expansion count, same push count, for every search.

// refEngines returns the reference engines in Engines() order.
func refEngines() []Router { return []Router{refLee{}, refAStar{}, refHadlock{}} }

// refArena is the reference engines' per-search scratch: pooled, with
// generation stamps in place of cleared label arrays.
type refArena struct {
	g      *geom.Grid
	gen    uint32
	stamp  []uint32
	parent []int32 // cell index -> predecessor cell index, -2 root
	dist   []int64
	detour []int32
	heap   []refItem
	queue  []geom.Cell
	next   []geom.Cell
}

var refArenaPool = sync.Pool{New: func() any { return new(refArena) }}

func acquireRefArena(g *geom.Grid) *refArena {
	a := refArenaPool.Get().(*refArena)
	n := g.Cols() * g.Rows()
	if len(a.stamp) < n {
		a.stamp = make([]uint32, n)
		a.parent = make([]int32, n)
		a.dist = make([]int64, n)
		a.detour = make([]int32, n)
		a.gen = 0
	}
	a.g = g
	a.gen++
	a.heap = a.heap[:0]
	a.queue = a.queue[:0]
	a.next = a.next[:0]
	return a
}

func (a *refArena) release() {
	a.g = nil
	refArenaPool.Put(a)
}

func (a *refArena) visited(i int32) bool { return a.stamp[i] == a.gen }

func (a *refArena) visit(i int32) { a.stamp[i] = a.gen }

func (a *refArena) index(c geom.Cell) int32 { return int32(c.Row*a.g.Cols() + c.Col) }

func (a *refArena) cell(i int32) geom.Cell {
	cols := a.g.Cols()
	return geom.Cell{Col: int(i) % cols, Row: int(i) / cols}
}

func (a *refArena) unwind(target geom.Cell) []geom.Cell {
	var rev []geom.Cell
	for i := a.index(target); i != -2; i = a.parent[i] {
		rev = append(rev, a.cell(i))
	}
	out := make([]geom.Cell, len(rev))
	for i, c := range rev {
		out[len(rev)-1-i] = c
	}
	return out
}

// refNeighbors4 appends the in-bounds von Neumann neighbors of c in the
// order col+1, col-1, row+1, row-1.
func refNeighbors4(g *geom.Grid, dst []geom.Cell, c geom.Cell) []geom.Cell {
	candidates := [4]geom.Cell{
		{Col: c.Col + 1, Row: c.Row},
		{Col: c.Col - 1, Row: c.Row},
		{Col: c.Col, Row: c.Row + 1},
		{Col: c.Col, Row: c.Row - 1},
	}
	for _, n := range candidates {
		if g.InBounds(n) {
			dst = append(dst, n)
		}
	}
	return dst
}

func refPassable(g *geom.Grid, c, target geom.Cell) bool {
	return c == target || !g.Blocked(c)
}

// refItem is one heap entry of the reference A*.
type refItem struct {
	cell geom.Cell
	prio int64
	g    int64
	seq  int64
}

func refLess(x, y refItem) bool {
	if x.prio != y.prio {
		return x.prio < y.prio
	}
	return x.seq < y.seq
}

func (a *refArena) heapPush(it refItem) {
	h := append(a.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !refLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	a.heap = h
}

func (a *refArena) heapPop() refItem {
	h := a.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && refLess(h[l], h[least]) {
			least = l
		}
		if r < n && refLess(h[r], h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	a.heap = h
	return top
}

type refLee struct{}

func (refLee) Name() string { return "lee" }

func (refLee) Search(ctx context.Context, g *geom.Grid, sources []geom.Cell, target geom.Cell) ([]geom.Cell, int, bool) {
	a := acquireRefArena(g)
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
	var scratch []geom.Cell
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
		scratch = refNeighbors4(g, scratch[:0], cur)
		for _, nb := range scratch {
			if !refPassable(g, nb, target) {
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

type refAStar struct{}

func (refAStar) Name() string { return "astar" }

func (refAStar) Search(ctx context.Context, g *geom.Grid, sources []geom.Cell, target geom.Cell) ([]geom.Cell, int, bool) {
	a := acquireRefArena(g)
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
	var seq int64
	for _, s := range sources {
		if !g.InBounds(s) {
			continue
		}
		if i := a.index(s); !a.visited(i) {
			a.visit(i)
			a.dist[i] = 0
			a.parent[i] = -2
			a.heapPush(refItem{cell: s, prio: h(s), g: 0, seq: seq})
			seq++
		}
	}
	expansions := 0
	var scratch []geom.Cell
	for len(a.heap) > 0 {
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
		scratch = refNeighbors4(g, scratch[:0], it.cell)
		for _, nb := range scratch {
			if !refPassable(g, nb, target) {
				continue
			}
			ni := a.index(nb)
			ng := it.g + 1 + int64(g.Cost(nb))
			if !a.visited(ni) || ng < a.dist[ni] {
				a.visit(ni)
				a.dist[ni] = ng
				a.parent[ni] = i
				a.heapPush(refItem{cell: nb, prio: ng + h(nb), g: ng, seq: seq})
				seq++
			}
		}
	}
	so.flush(expansions, int(seq))
	return nil, expansions, false
}

type refHadlock struct{}

func (refHadlock) Name() string { return "hadlock" }

func (refHadlock) Search(ctx context.Context, g *geom.Grid, sources []geom.Cell, target geom.Cell) ([]geom.Cell, int, bool) {
	a := acquireRefArena(g)
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
	var scratch []geom.Cell
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
			scratch = refNeighbors4(g, scratch[:0], cur)
			for _, nb := range scratch {
				if !refPassable(g, nb, target) {
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
