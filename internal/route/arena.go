package route

import (
	"sync"

	"repro/internal/geom"
)

// searchArena is the reusable per-search scratch shared by the three maze
// engines: predecessor links, per-engine cost labels, frontier storage,
// and a neighbor buffer. Arenas are pooled, and instead of refilling the
// O(cells) label arrays before every search, cells carry a generation
// stamp — a label is valid only when its stamp matches the arena's
// current generation, so "clearing" the arena is one integer increment.
//
// Pooling is what makes Router.Search allocation-free in steady state:
// concurrent searches (the serve worker gate, parallel experiments) each
// take their own arena, and arenas only grow, so a search on a small grid
// reuses a big grid's arrays untouched.
type searchArena struct {
	g   *geom.Grid
	gen uint32
	// stamp validates parent/dist/detour entries for the current search.
	stamp  []uint32
	parent []int32 // cell index -> predecessor cell index, -2 root
	dist   []int64 // A*: best path cost so far
	detour []int32 // Hadlock: detour count
	// frontier storage, reused across searches.
	heap    []pqItem
	queue   []geom.Cell
	next    []geom.Cell
	scratch []geom.Cell
	rev     []geom.Cell
}

var arenaPool = sync.Pool{New: func() any { return new(searchArena) }}

// acquireArena takes a pooled arena sized for g and opens a fresh
// generation. Callers must release() it when the search ends.
func acquireArena(g *geom.Grid) *searchArena {
	a := arenaPool.Get().(*searchArena)
	n := g.NumCells()
	if len(a.stamp) < n {
		a.stamp = make([]uint32, n)
		a.parent = make([]int32, n)
		a.dist = make([]int64, n)
		a.detour = make([]int32, n)
		a.gen = 0 // fresh zeroed stamps: restart generations below it
	}
	a.g = g
	a.gen++
	if a.gen == 0 { // wraparound: re-zero the stamps once per 2^32 searches
		for i := range a.stamp {
			a.stamp[i] = 0
		}
		a.gen = 1
	}
	a.heap = a.heap[:0]
	a.queue = a.queue[:0]
	a.next = a.next[:0]
	return a
}

func (a *searchArena) release() {
	a.g = nil
	arenaPool.Put(a)
}

// visited reports whether cell index i carries labels from this search.
func (a *searchArena) visited(i int32) bool { return a.stamp[i] == a.gen }

// visit stamps cell index i into the current generation.
func (a *searchArena) visit(i int32) { a.stamp[i] = a.gen }

func (a *searchArena) index(c geom.Cell) int32 { return int32(c.Row*a.g.Cols() + c.Col) }

func (a *searchArena) cell(i int32) geom.Cell {
	cols := a.g.Cols()
	return geom.Cell{Col: int(i) % cols, Row: int(i) / cols}
}

// unwind rebuilds the path from a root to the target. The reversal buffer
// is arena-owned; only the returned path is freshly allocated (it outlives
// the search).
func (a *searchArena) unwind(target geom.Cell) []geom.Cell {
	rev := a.rev[:0]
	for i := a.index(target); i != -2; i = a.parent[i] {
		rev = append(rev, a.cell(i))
	}
	a.rev = rev
	out := make([]geom.Cell, len(rev))
	for i, c := range rev {
		out[len(rev)-1-i] = c
	}
	return out
}

// pqLess is the frontier order of the best-first engines: priority, then
// insertion sequence. seq is unique per pushed item, so the order is
// total and every correct heap pops the exact same sequence — expansion
// order (and with it every routed artifact) is implementation-independent.
func pqLess(x, y pqItem) bool {
	if x.prio != y.prio {
		return x.prio < y.prio
	}
	return x.seq < y.seq
}

// heapPush inserts an item into the arena's binary heap. A concrete
// []pqItem heap replaces container/heap: no interface boxing per push and
// pop, which was the router's dominant allocation source.
func (a *searchArena) heapPush(it pqItem) {
	h := append(a.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !pqLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	a.heap = h
}

// heapPop removes and returns the least item.
func (a *searchArena) heapPop() pqItem {
	h := a.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && pqLess(h[l], h[least]) {
			least = l
		}
		if r < n && pqLess(h[r], h[least]) {
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

func (a *searchArena) heapLen() int { return len(a.heap) }
