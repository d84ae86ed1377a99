package route

import (
	"context"
	"fmt"
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

// TestArenaBucketOrder is the determinism keystone for A*'s bucket
// queue. Under A*'s contract — every push made while bucket p is being
// expanded lands in bucket p or later — draining the buckets lowest first,
// each in FIFO order, must pop exactly the order of a (prio, push
// sequence) priority queue. The trial interleaves pops and pushes the way
// a search does and checks every pop against a linear-scan reference.
// Arbitrary (non-monotone) push orders are outside the contract.
func TestArenaBucketOrder(t *testing.T) {
	rng := xrand.New(42)
	type ref struct {
		prio int
		seq  int32
	}
	for trial := 0; trial < 50; trial++ {
		a := acquireArena(mustGrid(t))
		var want []ref
		var seq int32
		push := func(prio int) {
			a.bucketPush(prio, seq, 0)
			want = append(want, ref{prio, seq})
			seq++
		}
		for n := 1 + rng.Intn(5); n > 0; n-- {
			push(rng.Intn(8))
		}
		pops := 0
		for b := 0; b < len(a.head); b++ {
			for k := a.head[b]; k >= 0; k = a.items[k].next {
				got := a.items[k]
				least := 0
				for i, r := range want {
					if r.prio < want[least].prio || (r.prio == want[least].prio && r.seq < want[least].seq) {
						least = i
					}
				}
				if w := want[least]; w.prio != b || w.seq != got.cell {
					t.Fatalf("trial %d: pop %d = (%d,%d), want (%d,%d)", trial, pops, b, got.cell, w.prio, w.seq)
				}
				want = append(want[:least], want[least+1:]...)
				pops++
				if seq < 300 {
					for n := rng.Intn(4); n > 0; n-- {
						push(b + rng.Intn(6)) // monotone: never below b
					}
				}
			}
		}
		if len(want) != 0 {
			t.Fatalf("trial %d: %d pushed items never popped", trial, len(want))
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
