package geom

import (
	"errors"
	"testing"
	"testing/quick"
)

func mustGrid(t *testing.T, bounds Rect, pitch int64) *Grid {
	t.Helper()
	g, err := NewGrid(bounds, pitch)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	return g
}

func TestNewGridErrors(t *testing.T) {
	if _, err := NewGrid(R(0, 0, 100, 100), 0); err == nil {
		t.Error("pitch 0 should fail")
	}
	if _, err := NewGrid(R(0, 0, 100, 100), -5); err == nil {
		t.Error("negative pitch should fail")
	}
	if _, err := NewGrid(Rect{}, 10); err == nil {
		t.Error("empty bounds should fail")
	}
}

func TestGridDimensions(t *testing.T) {
	g := mustGrid(t, R(0, 0, 100, 60), 10)
	if g.Cols() != 10 || g.Rows() != 6 {
		t.Errorf("dims = %dx%d, want 10x6", g.Cols(), g.Rows())
	}
	if g.NumCells() != 60 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
	// Non-divisible bounds round the cell count up.
	g2 := mustGrid(t, R(0, 0, 105, 61), 10)
	if g2.Cols() != 11 || g2.Rows() != 7 {
		t.Errorf("rounded dims = %dx%d, want 11x7", g2.Cols(), g2.Rows())
	}
}

func TestGridCellOfClamps(t *testing.T) {
	g := mustGrid(t, R(0, 0, 100, 100), 10)
	cases := []struct {
		p    Point
		want Cell
	}{
		{Pt(0, 0), Cell{0, 0}},
		{Pt(99, 99), Cell{9, 9}},
		{Pt(100, 100), Cell{9, 9}}, // on the exclusive max: clamped in
		{Pt(-50, 5), Cell{0, 0}},   // outside: clamped
		{Pt(55, 1000), Cell{5, 9}},
	}
	for _, c := range cases {
		if got := g.CellOf(c.p); got != c.want {
			t.Errorf("CellOf(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestGridCenterOfRoundTrip(t *testing.T) {
	g := mustGrid(t, R(100, 200, 600, 700), 25)
	prop := func(col, row uint8) bool {
		c := Cell{int(col) % g.Cols(), int(row) % g.Rows()}
		return g.CellOf(g.CenterOf(c)) == c
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestGridBlocking(t *testing.T) {
	g := mustGrid(t, R(0, 0, 100, 100), 10)
	c := Cell{4, 5}
	if g.Blocked(c) {
		t.Error("fresh grid should be unblocked")
	}
	g.Block(c)
	if !g.Blocked(c) {
		t.Error("Block did not take")
	}
	g.Unblock(c)
	if g.Blocked(c) {
		t.Error("Unblock did not take")
	}
	// Out-of-bounds cells read as blocked and ignore writes.
	oob := Cell{-1, 3}
	if !g.Blocked(oob) {
		t.Error("out-of-bounds should read blocked")
	}
	g.Block(oob)
	g.Unblock(oob) // must not panic
}

func TestGridBlockRect(t *testing.T) {
	g := mustGrid(t, R(0, 0, 100, 100), 10)
	n := g.BlockRect(R(15, 15, 35, 25))
	// Covers columns 1..3 (x 15..35 touches cells 1,2,3) and rows 1..2.
	if n != 6 {
		t.Errorf("BlockRect blocked %d cells, want 6", n)
	}
	if !g.Blocked(Cell{1, 1}) || !g.Blocked(Cell{3, 2}) {
		t.Error("expected corner cells blocked")
	}
	if g.Blocked(Cell{4, 1}) || g.Blocked(Cell{1, 3}) {
		t.Error("cells outside the rect must stay free")
	}
	// Re-blocking the same region blocks nothing new.
	if n := g.BlockRect(R(15, 15, 35, 25)); n != 0 {
		t.Errorf("re-BlockRect blocked %d, want 0", n)
	}
	// A rect fully outside the grid is a no-op.
	if n := g.BlockRect(R(500, 500, 600, 600)); n != 0 {
		t.Errorf("outside BlockRect blocked %d, want 0", n)
	}
	if g.FreeCells() != 100-6 {
		t.Errorf("FreeCells = %d, want 94", g.FreeCells())
	}
}

func TestGridBlockRectExactBoundary(t *testing.T) {
	g := mustGrid(t, R(0, 0, 100, 100), 10)
	// A rect ending exactly on a cell boundary must not bleed into the next cell.
	g.BlockRect(R(0, 0, 10, 10))
	if !g.Blocked(Cell{0, 0}) {
		t.Error("cell (0,0) should be blocked")
	}
	if g.Blocked(Cell{1, 0}) || g.Blocked(Cell{0, 1}) {
		t.Error("boundary-aligned rect bled into neighbor cells")
	}
}

func TestGridCost(t *testing.T) {
	g := mustGrid(t, R(0, 0, 50, 50), 10)
	c := Cell{2, 2}
	g.AddCost(c, 7)
	if got := g.Cost(c); got != 7 {
		t.Errorf("Cost = %d, want 7", got)
	}
	g.AddCost(c, -100) // clamps at zero
	if got := g.Cost(c); got != 0 {
		t.Errorf("clamped Cost = %d, want 0", got)
	}
	if got := g.Cost(Cell{-1, -1}); got != 0 {
		t.Errorf("out-of-bounds Cost = %d, want 0", got)
	}
	g.AddCost(Cell{99, 99}, 5) // must not panic
}

// TestGridPaddedLayout pins the layout maze searches index into: a
// blocked one-cell ring around the grid, stride cols+2, and the four
// neighbor offsets landing on the Cell neighbors.
func TestGridPaddedLayout(t *testing.T) {
	g := mustGrid(t, R(0, 0, 40, 30), 10) // 4x3
	if g.Stride() != 6 || g.PaddedLen() != 6*5 {
		t.Fatalf("stride %d, padded len %d, want 6 and 30", g.Stride(), g.PaddedLen())
	}
	blocked, cost := g.Occupancy()
	free := 0
	for i, b := range blocked {
		c := g.PaddedCell(int32(i))
		if g.InBounds(c) == b {
			t.Errorf("padded entry %d (%v): blocked=%v", i, c, b)
		}
		if !b {
			free++
		}
	}
	if free != g.NumCells() || g.FreeCells() != g.NumCells() {
		t.Errorf("free entries %d, FreeCells %d, want %d", free, g.FreeCells(), g.NumCells())
	}
	mid := Cell{Col: 1, Row: 1}
	i := g.PaddedIndex(mid)
	if g.PaddedCell(i) != mid {
		t.Errorf("PaddedCell(PaddedIndex(%v)) = %v", mid, g.PaddedCell(i))
	}
	want := []Cell{{2, 1}, {0, 1}, {1, 2}, {1, 0}}
	for k, off := range []int32{1, -1, int32(g.Stride()), -int32(g.Stride())} {
		if got := g.PaddedCell(i + off); got != want[k] {
			t.Errorf("offset %d from %v lands on %v, want %v", off, mid, got, want[k])
		}
	}
	if g.PaddedIndex(Cell{Col: 4, Row: 0}) != -1 || g.PaddedIndex(Cell{Col: -1, Row: 2}) != -1 {
		t.Error("out-of-bounds cell has a padded index")
	}
	g.Block(mid)
	g.AddCost(Cell{Col: 3, Row: 2}, 7)
	if !blocked[i] || cost[g.PaddedIndex(Cell{Col: 3, Row: 2})] != 7 {
		t.Error("Occupancy does not view the grid's own storage")
	}
}

func TestGridDimsLimit(t *testing.T) {
	cols, rows, err := GridDims(R(0, 0, 1024*100, 2048*100), 100)
	if err != nil || cols != 1024 || rows != 2048 {
		t.Fatalf("GridDims at the limit = %d, %d, %v", cols, rows, err)
	}
	for _, b := range []Rect{
		R(0, 0, 1025*100, 2048*100),
		R(0, 0, int64(MaxGridCells+1)*100, 100),
		R(-1<<62, -1<<62, 1<<62, 1<<62), // extent overflows int64
	} {
		if _, _, err := GridDims(b, 100); !errors.Is(err, ErrGridTooLarge) {
			t.Errorf("GridDims(%v) = %v, want ErrGridTooLarge", b, err)
		}
		if _, err := NewGrid(b, 100); !errors.Is(err, ErrGridTooLarge) {
			t.Errorf("NewGrid(%v) = %v, want ErrGridTooLarge", b, err)
		}
	}
}

func TestGridClone(t *testing.T) {
	g := mustGrid(t, R(0, 0, 40, 40), 10)
	g.Block(Cell{1, 1})
	g.AddCost(Cell{2, 2}, 3)
	c := g.CloneInto(nil)
	if !c.Blocked(Cell{1, 1}) || c.Cost(Cell{2, 2}) != 3 {
		t.Error("clone did not copy state")
	}
	c.Block(Cell{3, 3})
	c.AddCost(Cell{2, 2}, 5)
	if g.Blocked(Cell{3, 3}) {
		t.Error("mutating clone blocked original")
	}
	if g.Cost(Cell{2, 2}) != 3 {
		t.Error("mutating clone changed original cost")
	}
	// CloneInto reuses a same-shaped destination and resets it fully.
	if d := g.CloneInto(c); d != c || d.Blocked(Cell{3, 3}) || d.Cost(Cell{2, 2}) != 3 {
		t.Error("CloneInto did not overwrite a same-shaped grid in place")
	}
	other := mustGrid(t, R(0, 0, 50, 40), 10)
	if d := g.CloneInto(other); d == other || d.Cols() != 4 || !d.Blocked(Cell{1, 1}) {
		t.Error("CloneInto reused a grid of another shape")
	}
}
