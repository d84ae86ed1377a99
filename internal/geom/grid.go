package geom

import (
	"errors"
	"fmt"
)

// Cell addresses one square of a Grid in column/row space.
type Cell struct {
	Col, Row int
}

// String renders the cell as "c<col>r<row>".
func (c Cell) String() string { return fmt.Sprintf("c%dr%d", c.Col, c.Row) }

// Grid discretizes a device region into square cells of Pitch micrometers,
// tracking which cells are blocked by placed geometry. Routers operate on
// this occupancy view rather than on raw coordinates.
//
// Occupancy and cost live in a padded row-major layout: the cols×rows
// cells sit inside a one-cell ring that is always blocked, so a row is
// Stride() = cols+2 entries long and cell (col, row) is entry
// (row+1)*stride + col+1. A maze search steps to a neighbor by adding one
// of {+1, -1, +stride, -stride} to a flat index and never needs a bounds
// check: stepping off the grid lands on a blocked ring cell.
type Grid struct {
	bounds  Rect
	pitch   int64
	cols    int
	rows    int
	stride  int
	blocked []bool
	// cost holds per-cell additive routing cost (congestion penalties from
	// rip-up-and-reroute); zero means free. Ring cells stay zero.
	cost []int32
}

// MaxGridCells bounds the cells of one grid. It is far above the largest
// routing grid any suite device or sweep builds at the default pitch
// (sweep_1280 at about 796k cells) and keeps every padded cell index
// inside int32.
const MaxGridCells = 1 << 21

// ErrGridTooLarge is wrapped by the error for a grid whose cell count
// exceeds MaxGridCells.
var ErrGridTooLarge = errors.New("routing grid too large")

// GridDims returns the column and row counts of a grid covering bounds at
// the given pitch, without allocating it. It fails when the pitch is not
// positive, the bounds are empty, or the grid would exceed MaxGridCells
// (an error wrapping ErrGridTooLarge).
func GridDims(bounds Rect, pitch int64) (cols, rows int, err error) {
	if pitch <= 0 {
		return 0, 0, fmt.Errorf("geom: grid pitch must be positive, got %d", pitch)
	}
	if bounds.Empty() {
		return 0, 0, fmt.Errorf("geom: grid bounds %v are empty", bounds)
	}
	dx, dy := bounds.Dx(), bounds.Dy()
	if dx <= 0 || dy <= 0 {
		// Non-empty bounds whose extent overflows int64.
		return 0, 0, fmt.Errorf("geom: grid bounds %v: %w", bounds, ErrGridTooLarge)
	}
	c, r := ceilDiv(dx, pitch), ceilDiv(dy, pitch)
	if c > MaxGridCells || r > MaxGridCells/c {
		return 0, 0, fmt.Errorf("geom: %d×%d cells at pitch %d µm exceed the %d-cell limit: %w",
			c, r, pitch, MaxGridCells, ErrGridTooLarge)
	}
	return int(c), int(r), nil
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}

// NewGrid builds an occupancy grid covering bounds with the given pitch.
// The pitch must be positive, bounds must be non-empty, and the grid may
// hold at most MaxGridCells cells (see GridDims).
func NewGrid(bounds Rect, pitch int64) (*Grid, error) {
	cols, rows, err := GridDims(bounds, pitch)
	if err != nil {
		return nil, err
	}
	stride := cols + 2
	n := stride * (rows + 2)
	g := &Grid{
		bounds:  bounds,
		pitch:   pitch,
		cols:    cols,
		rows:    rows,
		stride:  stride,
		blocked: make([]bool, n),
		cost:    make([]int32, n),
	}
	for col := 0; col < stride; col++ {
		g.blocked[col] = true
		g.blocked[n-1-col] = true
	}
	for row := 1; row <= rows; row++ {
		g.blocked[row*stride] = true
		g.blocked[row*stride+stride-1] = true
	}
	return g, nil
}

// Cols returns the number of grid columns.
func (g *Grid) Cols() int { return g.cols }

// Rows returns the number of grid rows.
func (g *Grid) Rows() int { return g.rows }

// Pitch returns the cell size in micrometers.
func (g *Grid) Pitch() int64 { return g.pitch }

// Bounds returns the region the grid covers.
func (g *Grid) Bounds() Rect { return g.bounds }

// NumCells returns the total cell count.
func (g *Grid) NumCells() int { return g.cols * g.rows }

// InBounds reports whether c addresses a cell inside the grid.
func (g *Grid) InBounds(c Cell) bool {
	return c.Col >= 0 && c.Col < g.cols && c.Row >= 0 && c.Row < g.rows
}

// index is c's entry in the padded layout; c must be in bounds.
func (g *Grid) index(c Cell) int { return (c.Row+1)*g.stride + c.Col + 1 }

// Stride returns the row length of the padded layout, cols+2.
func (g *Grid) Stride() int { return g.stride }

// PaddedLen returns the number of entries in the padded layout,
// ring included.
func (g *Grid) PaddedLen() int { return len(g.blocked) }

// PaddedIndex returns c's index in the padded layout, or -1 when c is
// outside the grid.
func (g *Grid) PaddedIndex(c Cell) int32 {
	if !g.InBounds(c) {
		return -1
	}
	return int32(g.index(c))
}

// PaddedCell maps the padded index of an in-bounds cell back to the cell.
func (g *Grid) PaddedCell(i int32) Cell {
	return Cell{Col: int(i)%g.stride - 1, Row: int(i)/g.stride - 1}
}

// Occupancy returns the padded blocked and cost arrays. They are the
// grid's own storage, exposed so maze searches can read them by flat
// index; callers must not modify them.
func (g *Grid) Occupancy() (blocked []bool, cost []int32) { return g.blocked, g.cost }

// CellOf maps a device-space point to its containing cell. Points outside
// the bounds are clamped to the nearest edge cell so that ports sitting
// exactly on the device boundary remain routable.
func (g *Grid) CellOf(p Point) Cell {
	col := int((p.X - g.bounds.Min.X) / g.pitch)
	row := int((p.Y - g.bounds.Min.Y) / g.pitch)
	if col < 0 {
		col = 0
	}
	if col >= g.cols {
		col = g.cols - 1
	}
	if row < 0 {
		row = 0
	}
	if row >= g.rows {
		row = g.rows - 1
	}
	return Cell{Col: col, Row: row}
}

// CenterOf maps a cell back to the device-space point at its center.
func (g *Grid) CenterOf(c Cell) Point {
	return Point{
		X: g.bounds.Min.X + int64(c.Col)*g.pitch + g.pitch/2,
		Y: g.bounds.Min.Y + int64(c.Row)*g.pitch + g.pitch/2,
	}
}

// Block marks the single cell c as occupied. Out-of-bounds cells are ignored.
func (g *Grid) Block(c Cell) {
	if g.InBounds(c) {
		g.blocked[g.index(c)] = true
	}
}

// Unblock clears the occupied mark on c. Out-of-bounds cells are ignored.
func (g *Grid) Unblock(c Cell) {
	if g.InBounds(c) {
		g.blocked[g.index(c)] = false
	}
}

// Blocked reports whether c is occupied. Out-of-bounds cells count as
// blocked so that router neighbor expansion never escapes the grid.
func (g *Grid) Blocked(c Cell) bool {
	if !g.InBounds(c) {
		return true
	}
	return g.blocked[g.index(c)]
}

// BlockRect marks every cell intersecting r (in device space) as occupied.
// It returns the number of cells newly blocked.
func (g *Grid) BlockRect(r Rect) int {
	clipped := r.Intersect(g.bounds)
	if clipped.Empty() {
		return 0
	}
	lo := g.CellOf(clipped.Min)
	// Max is exclusive: back off one micrometer to find the last covered cell.
	hi := g.CellOf(Point{clipped.Max.X - 1, clipped.Max.Y - 1})
	n := 0
	for row := lo.Row; row <= hi.Row; row++ {
		for col := lo.Col; col <= hi.Col; col++ {
			i := g.index(Cell{Col: col, Row: row})
			if !g.blocked[i] {
				g.blocked[i] = true
				n++
			}
		}
	}
	return n
}

// AddCost adds delta to the routing cost of c; negative deltas are clamped
// so the stored cost never goes below zero.
func (g *Grid) AddCost(c Cell, delta int32) {
	if !g.InBounds(c) {
		return
	}
	i := g.index(c)
	v := g.cost[i] + delta
	if v < 0 {
		v = 0
	}
	g.cost[i] = v
}

// Cost returns the additive routing cost of c (zero when out of bounds).
func (g *Grid) Cost(c Cell) int32 {
	if !g.InBounds(c) {
		return 0
	}
	return g.cost[g.index(c)]
}

// FreeCells returns the number of unblocked cells (ring cells are always
// blocked, so counting the padded layout counts the grid).
func (g *Grid) FreeCells() int {
	n := 0
	for _, b := range g.blocked {
		if !b {
			n++
		}
	}
	return n
}

// CloneInto returns a deep copy of g, including occupancy and cost. It
// copies into dst and returns it when dst holds a grid of the same shape,
// reusing its storage; otherwise (or when dst is nil) it allocates.
func (g *Grid) CloneInto(dst *Grid) *Grid {
	if dst == nil || len(dst.blocked) != len(g.blocked) {
		dst = &Grid{
			blocked: make([]bool, len(g.blocked)),
			cost:    make([]int32, len(g.cost)),
		}
	}
	dst.bounds, dst.pitch = g.bounds, g.pitch
	dst.cols, dst.rows, dst.stride = g.cols, g.rows, g.stride
	copy(dst.blocked, g.blocked)
	copy(dst.cost, g.cost)
	return dst
}
