package route

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/xrand"
)

// countTap sums the expansion and push deltas one search flushes.
type countTap struct{ expansions, pushes int }

func (t *countTap) AnnealBatch(float64, int, int) {}

func (t *countTap) RouteBatch(_ string, expansions, pushes int) {
	t.expansions += expansions
	t.pushes += pushes
}

// outcome is everything one search reports: the path, the expansion
// count it returns, and the expansion and push totals it flushes.
type outcome struct {
	path                  []geom.Cell
	expansions            int
	ok                    bool
	flushedExp, flushedPu int
}

func runSearch(r Router, g *geom.Grid, sources []geom.Cell, target geom.Cell) outcome {
	tap := &countTap{}
	ctx := obs.WithRecorder(context.Background(), (*obs.Recorder)(nil).WithTap(tap))
	path, exp, ok := r.Search(ctx, g, sources, target)
	return outcome{path: path, expansions: exp, ok: ok, flushedExp: tap.expansions, flushedPu: tap.pushes}
}

// diffSearch runs one query through an engine and its reference. It
// returns the engine's outcome and describes the first difference, or
// "" when the two agree.
func diffSearch(r, ref Router, g *geom.Grid, sources []geom.Cell, target geom.Cell) (outcome, string) {
	got := runSearch(r, g, sources, target)
	want := runSearch(ref, g, sources, target)
	switch {
	case got.ok != want.ok:
		return got, fmt.Sprintf("ok %v, reference %v", got.ok, want.ok)
	case got.expansions != want.expansions:
		return got, fmt.Sprintf("expansions %d, reference %d", got.expansions, want.expansions)
	case got.flushedExp != want.flushedExp:
		return got, fmt.Sprintf("flushed expansions %d, reference %d", got.flushedExp, want.flushedExp)
	case got.flushedPu != want.flushedPu:
		return got, fmt.Sprintf("pushes %d, reference %d", got.flushedPu, want.flushedPu)
	case !slices.Equal(got.path, want.path):
		return got, fmt.Sprintf("path %v, reference %v", got.path, want.path)
	}
	return got, ""
}

// diffRouter routes with the production engine and checks every search
// it is asked for against the reference engine on the same grid state.
type diffRouter struct {
	Router
	ref      Router
	searches int
	first    string // first mismatch, "" while all agree
}

func (d *diffRouter) Search(ctx context.Context, g *geom.Grid, sources []geom.Cell, target geom.Cell) ([]geom.Cell, int, bool) {
	d.searches++
	got, msg := diffSearch(d.Router, d.ref, g, sources, target)
	if msg != "" && d.first == "" {
		d.first = fmt.Sprintf("search %d (%d sources, target %v): %s", d.searches, len(sources), target, msg)
	}
	return got.path, got.expansions, got.ok
}

// TestEnginesMatchReferenceOnSuite routes every suite device under every
// placer with each engine and holds every search RouteAll makes —
// first-round, rip-up and history-costed alike — to the reference engine.
// -short keeps the seven assay devices and skips the synthetic ones,
// whose reference A* runs take most of the time.
func TestEnginesMatchReferenceOnSuite(t *testing.T) {
	refs := refEngines()
	for _, b := range bench.Suite() {
		if testing.Short() && b.Class == bench.Synthetic {
			continue
		}
		d := b.Build()
		for _, placer := range place.Engines() {
			p, err := placer.Place(context.Background(), d, place.NewOptions(place.WithSeed(1)))
			if err != nil {
				t.Fatal(err)
			}
			for ei, r := range Engines() {
				t.Run(b.Name+"/"+placer.Name()+"/"+r.Name(), func(t *testing.T) {
					dr := &diffRouter{Router: r, ref: refs[ei]}
					if _, err := RouteAll(context.Background(), p, dr, Options{}); err != nil {
						t.Fatal(err)
					}
					if dr.first != "" {
						t.Error(dr.first)
					}
				})
			}
		}
	}
}

// mazeCase is one randomized search: a grid with walls and costs, a
// source set and a target.
type mazeCase struct {
	g       *geom.Grid
	sources []geom.Cell
	target  geom.Cell
	costly  bool
}

// randomMaze draws a grid of up to maxSide cells a side with the given
// wall density (out of 256), optional history costs, one to four sources
// (some possibly outside the grid or duplicated) and a target that may be
// blocked or outside the grid.
func randomMaze(seed uint64, maxSide, density int, costly bool) mazeCase {
	rng := xrand.New(seed)
	cols, rows := 1+rng.Intn(maxSide), 1+rng.Intn(maxSide)
	g, err := geom.NewGrid(geom.R(0, 0, int64(cols)*10, int64(rows)*10), 10)
	if err != nil {
		panic(err)
	}
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			c := geom.Cell{Col: col, Row: row}
			if rng.Intn(256) < density {
				g.Block(c)
			}
			if costly && rng.Intn(4) == 0 {
				g.AddCost(c, int32(1+rng.Intn(6)))
			}
		}
	}
	cell := func() geom.Cell {
		// One draw in eight lands up to two cells outside the grid.
		if rng.Intn(8) == 0 {
			return geom.Cell{Col: rng.Intn(cols+4) - 2, Row: rng.Intn(rows+4) - 2}
		}
		return geom.Cell{Col: rng.Intn(cols), Row: rng.Intn(rows)}
	}
	mc := mazeCase{g: g, target: cell(), costly: costly}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		mc.sources = append(mc.sources, cell())
	}
	if rng.Intn(4) == 0 {
		mc.sources = append(mc.sources, mc.sources[0])
	}
	if rng.Intn(3) == 0 {
		g.Block(mc.target)
	}
	return mc
}

// checkMaze holds every engine to its reference on mc and, on cost-free
// grids, checks the engines' shortest-path guarantees: lee and astar
// always return equally long paths, and with a single source so does
// hadlock (with several sources Hadlock minimizes detours, which does
// not minimize length).
func checkMaze(t *testing.T, mc mazeCase) {
	t.Helper()
	refs := refEngines()
	lengths := map[string]int{}
	for i, r := range Engines() {
		got, msg := diffSearch(r, refs[i], mc.g, mc.sources, mc.target)
		if msg != "" {
			t.Fatalf("%s on %dx%d grid, sources %v, target %v: %s",
				r.Name(), mc.g.Cols(), mc.g.Rows(), mc.sources, mc.target, msg)
		}
		lengths[r.Name()] = len(got.path)
		if !got.ok {
			lengths[r.Name()] = -1
		}
	}
	if mc.costly {
		return
	}
	if lengths["lee"] != lengths["astar"] {
		t.Fatalf("cost-free grid: lee path %d cells, astar %d", lengths["lee"], lengths["astar"])
	}
	if len(mc.sources) == 1 && lengths["lee"] != lengths["hadlock"] {
		t.Fatalf("cost-free grid, one source: lee path %d cells, hadlock %d", lengths["lee"], lengths["hadlock"])
	}
}

// TestEnginesMatchReferenceOnRandomGrids covers what suite devices rarely
// reach: tiny and one-cell grids, dense walls, several and duplicated
// sources, sources and targets outside the grid, blocked targets.
func TestEnginesMatchReferenceOnRandomGrids(t *testing.T) {
	for seed := uint64(1); seed <= 600; seed++ {
		density := []int{0, 40, 90, 140}[seed%4]
		checkMaze(t, randomMaze(seed, 30, density, seed%3 == 0))
	}
}

// FuzzMazeEngines is the engine-agreement fuzzer: on any random grid all
// three engines match their references exactly, and on cost-free grids
// they agree on path length.
func FuzzMazeEngines(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(0), false)
	f.Add(uint64(2), uint8(40), uint8(100), true)
	f.Add(uint64(3), uint8(3), uint8(200), false)
	f.Add(uint64(4), uint8(64), uint8(60), true)
	f.Fuzz(func(t *testing.T, seed uint64, side, density uint8, costly bool) {
		checkMaze(t, randomMaze(seed, 1+int(side)%64, int(density), costly))
	})
}
