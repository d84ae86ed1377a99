package route

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// TestArenaReuseAcrossGridSizes drives one goroutine's arena through
// big-grid / small-grid / big-grid searches: the arena only grows, and
// generation stamps must keep a small search from seeing the big
// search's labels (and vice versa).
func TestArenaReuseAcrossGridSizes(t *testing.T) {
	big, err := geom.NewGrid(geom.R(0, 0, 5000, 5000), 10)
	if err != nil {
		t.Fatal(err)
	}
	small, err := geom.NewGrid(geom.R(0, 0, 100, 100), 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range Engines() {
		for i := 0; i < 3; i++ {
			for _, g := range []*geom.Grid{big, small, big} {
				cols, rows := g.Cols(), g.Rows()
				path, _, ok := r.Search(context.Background(), g,
					[]geom.Cell{{Col: 0, Row: 0}}, geom.Cell{Col: cols - 1, Row: rows - 1})
				if !ok {
					t.Fatalf("%s: no path on open %dx%d grid", r.Name(), cols, rows)
				}
				if want := cols - 1 + rows - 1 + 1; len(path) != want {
					t.Fatalf("%s on %dx%d: path %d cells, want %d",
						r.Name(), cols, rows, len(path), want)
				}
			}
		}
	}
}

// TestConcurrentSearchesMatchSequential is the pooled-arena race hammer:
// many goroutines search the same read-only grid through every engine,
// and every result must equal the sequential answer. Run under -race this
// pins down that pooled arenas are never shared between in-flight
// searches.
func TestConcurrentSearchesMatchSequential(t *testing.T) {
	g, err := geom.NewGrid(geom.R(0, 0, 2000, 2000), 10)
	if err != nil {
		t.Fatal(err)
	}
	for col := 0; col < 180; col++ {
		g.Block(geom.Cell{Col: col, Row: 100})
	}
	type query struct {
		src, dst geom.Cell
	}
	queries := []query{
		{geom.Cell{Col: 0, Row: 0}, geom.Cell{Col: 199, Row: 199}},
		{geom.Cell{Col: 5, Row: 190}, geom.Cell{Col: 190, Row: 5}},
		{geom.Cell{Col: 0, Row: 99}, geom.Cell{Col: 0, Row: 101}},
	}
	for _, r := range Engines() {
		wantLen := make([]int, len(queries))
		wantExp := make([]int, len(queries))
		for qi, q := range queries {
			path, exp, ok := r.Search(context.Background(), g, []geom.Cell{q.src}, q.dst)
			if !ok {
				t.Fatalf("%s: query %d unroutable", r.Name(), qi)
			}
			wantLen[qi], wantExp[qi] = len(path), exp
		}
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					qi := (w + i) % len(queries)
					path, exp, ok := r.Search(context.Background(), g,
						[]geom.Cell{queries[qi].src}, queries[qi].dst)
					if !ok || len(path) != wantLen[qi] || exp != wantExp[qi] {
						errs <- errResult{r.Name(), qi, len(path), exp, wantLen[qi], wantExp[qi]}
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}

type errResult struct {
	engine                                  string
	query, gotLen, gotExp, wantLen, wantExp int
}

func (e errResult) Error() string {
	return fmt.Sprintf("%s query %d diverged from sequential: len %d exp %d, want len %d exp %d",
		e.engine, e.query, e.gotLen, e.gotExp, e.wantLen, e.wantExp)
}

// TestArenaHeapOrder is the determinism keystone for the concrete heap:
// (prio, seq) is a total order, so the pop sequence must be exactly the
// sorted order for arbitrary push interleavings.
func TestArenaHeapOrder(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 50; trial++ {
		a := acquireArena(mustGrid(t))
		n := 1 + rng.Intn(200)
		items := make([]pqItem, n)
		for i := range items {
			items[i] = pqItem{prio: int64(rng.Intn(20)), seq: int64(i)}
			a.heapPush(items[i])
		}
		sort.Slice(items, func(i, j int) bool { return pqLess(items[i], items[j]) })
		for i := range items {
			got := a.heapPop()
			if got.prio != items[i].prio || got.seq != items[i].seq {
				t.Fatalf("trial %d: pop %d = (%d,%d), want (%d,%d)",
					trial, i, got.prio, got.seq, items[i].prio, items[i].seq)
			}
		}
		if a.heapLen() != 0 {
			t.Fatal("heap not drained")
		}
		a.release()
	}
}

func mustGrid(t *testing.T) *geom.Grid {
	t.Helper()
	g, err := geom.NewGrid(geom.R(0, 0, 100, 100), 10)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
