package route

import (
	"sync"

	"repro/internal/geom"
)

// searchArena is the reusable per-search scratch shared by the three maze
// engines: predecessor links, per-engine cost labels and frontier
// storage, all over the grid's padded cell indices (see geom.Grid). Arenas
// are pooled, and instead of refilling the O(cells) label arrays before
// every search, cells carry a generation stamp — a label is valid only
// when its stamp matches the arena's current generation, so "clearing"
// the arena is one integer increment.
//
// Pooling is what makes Router.Search allocation-free in steady state:
// concurrent searches (the serve worker gate, parallel experiments) each
// take their own arena, and arenas only grow, so a search on a small grid
// reuses a big grid's arrays untouched.
type searchArena struct {
	gen uint32
	// cells holds one search label per padded index. Keeping a cell's
	// stamp, predecessor and cost in one struct means a neighbor test
	// touches one cache line, not three arrays.
	cells []cellLabel
	// Frontier storage, reused across searches: the FIFO level queues of
	// Lee and Hadlock, and A*'s FIFO buckets indexed by prio - base. A
	// bucket is a singly linked list threaded through items, from head[b]
	// to tail[b] (-1 when empty), so all buckets share one growing slice.
	queue []int32
	next  []int32
	items []pqItem
	head  []int32
	tail  []int32
}

var arenaPool = sync.Pool{New: func() any { return new(searchArena) }}

// acquireArena takes a pooled arena sized for g and opens a fresh
// generation. Callers must release() it when the search ends.
func acquireArena(g *geom.Grid) *searchArena {
	a := arenaPool.Get().(*searchArena)
	if n := g.PaddedLen(); len(a.cells) < n {
		a.cells = make([]cellLabel, n)
		a.gen = 0 // fresh zeroed stamps: restart generations below it
	}
	a.gen++
	if a.gen == 0 { // wraparound: re-zero the stamps once per 2^32 searches
		for i := range a.cells {
			a.cells[i].stamp = 0
		}
		a.gen = 1
	}
	a.queue = a.queue[:0]
	a.next = a.next[:0]
	a.items = a.items[:0]
	a.head = a.head[:0]
	a.tail = a.tail[:0]
	return a
}

func (a *searchArena) release() { arenaPool.Put(a) }

// cellLabel is one cell's search state. stamp validates parent and cost
// for the current generation.
type cellLabel struct {
	stamp  uint32
	parent int32 // predecessor padded index, -2 at a root
	cost   int64 // A*: best path cost so far; Hadlock: detour count
}

// visited reports whether padded index i carries labels from this search.
func (a *searchArena) visited(i int32) bool { return a.cells[i].stamp == a.gen }

// label stamps padded index i into the current generation with the given
// predecessor and cost.
func (a *searchArena) label(i, parent int32, cost int64) {
	a.cells[i] = cellLabel{stamp: a.gen, parent: parent, cost: cost}
}

// unwind rebuilds the path from a root to the target, converting padded
// indices back to cells. Only the returned path is allocated (it outlives
// the search): one walk up the parent chain counts the cells, a second
// fills the path back to front.
func (a *searchArena) unwind(g *geom.Grid, target int32) []geom.Cell {
	n := 0
	for i := target; i != -2; i = a.cells[i].parent {
		n++
	}
	out := make([]geom.Cell, n)
	for i := target; i != -2; i = a.cells[i].parent {
		n--
		out[n] = g.PaddedCell(i)
	}
	return out
}

// pqItem is one A* frontier entry; its priority is implied by the bucket
// that holds it.
type pqItem struct {
	cell int32
	next int32 // the bucket's following item, -1 at its tail
	g    int64 // cost so far
}

// bucketPush appends a frontier entry to the tail of bucket b.
func (a *searchArena) bucketPush(b int, cell int32, g int64) {
	for b >= len(a.head) {
		a.head = append(a.head, -1)
		a.tail = append(a.tail, -1)
	}
	k := int32(len(a.items))
	a.items = append(a.items, pqItem{cell: cell, next: -1, g: g})
	if t := a.tail[b]; t >= 0 {
		a.items[t].next = k
	} else {
		a.head[b] = k
	}
	a.tail[b] = k
}
