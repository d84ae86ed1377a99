package route

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/place"
)

// openGrid returns an empty 20x20 grid with 10µm pitch.
func openGrid(t testing.TB) *geom.Grid {
	t.Helper()
	g, err := geom.NewGrid(geom.R(0, 0, 200, 200), 10)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSearchOpenGrid(t *testing.T) {
	for _, r := range Engines() {
		t.Run(r.Name(), func(t *testing.T) {
			g := openGrid(t)
			src := geom.Cell{Col: 0, Row: 0}
			dst := geom.Cell{Col: 9, Row: 6}
			path, exp, ok := r.Search(context.Background(), g, []geom.Cell{src}, dst)
			if !ok {
				t.Fatal("no path on open grid")
			}
			if exp <= 0 {
				t.Error("expansions not counted")
			}
			// Shortest path: manhattan distance + 1 cells.
			if len(path) != 9+6+1 {
				t.Errorf("path length = %d cells, want 16", len(path))
			}
			if path[0] != src || path[len(path)-1] != dst {
				t.Errorf("path endpoints = %v..%v", path[0], path[len(path)-1])
			}
			// Path must be cell-connected.
			for i := 1; i < len(path); i++ {
				d := abs(path[i].Col-path[i-1].Col) + abs(path[i].Row-path[i-1].Row)
				if d != 1 {
					t.Fatalf("path not connected at %d: %v -> %v", i, path[i-1], path[i])
				}
			}
		})
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestSearchAroundObstacle(t *testing.T) {
	for _, r := range Engines() {
		t.Run(r.Name(), func(t *testing.T) {
			g := openGrid(t)
			// Wall across columns 0..18 at row 10 — forces a detour via col 19.
			for col := 0; col < 19; col++ {
				g.Block(geom.Cell{Col: col, Row: 10})
			}
			src := geom.Cell{Col: 0, Row: 0}
			dst := geom.Cell{Col: 0, Row: 19}
			path, _, ok := r.Search(context.Background(), g, []geom.Cell{src}, dst)
			if !ok {
				t.Fatal("no path around obstacle")
			}
			// Detour: 19 right to the gap at col 19, 19 down, 19 left back
			// to col 0 = 57 moves = 58 cells.
			if len(path) != 58 {
				t.Errorf("detour path = %d cells, want 58", len(path))
			}
			for _, c := range path {
				if g.Blocked(c) && c != dst {
					t.Fatalf("path crosses blocked cell %v", c)
				}
			}
		})
	}
}

func TestSearchUnreachable(t *testing.T) {
	for _, r := range Engines() {
		t.Run(r.Name(), func(t *testing.T) {
			g := openGrid(t)
			// Seal row 10 completely.
			for col := 0; col < 20; col++ {
				g.Block(geom.Cell{Col: col, Row: 10})
			}
			_, exp, ok := r.Search(context.Background(), g, []geom.Cell{{Col: 0, Row: 0}}, geom.Cell{Col: 0, Row: 19})
			if ok {
				t.Fatal("found path through sealed wall")
			}
			if exp <= 0 {
				t.Error("failed search should still report expansions")
			}
		})
	}
}

func TestSearchBlockedTargetIsEnterable(t *testing.T) {
	// Targets are ports on component boundaries: their cells are blocked by
	// the footprint but must still be reachable.
	for _, r := range Engines() {
		g := openGrid(t)
		dst := geom.Cell{Col: 5, Row: 5}
		g.Block(dst)
		_, _, ok := r.Search(context.Background(), g, []geom.Cell{{Col: 0, Row: 0}}, dst)
		if !ok {
			t.Errorf("%s: blocked target should be enterable", r.Name())
		}
	}
}

func TestSearchMultiSource(t *testing.T) {
	cases := []struct {
		name    string
		blocked []geom.Cell
		sources []geom.Cell
		target  geom.Cell
		// root is the source the path must start from, per engine.
		root map[string]geom.Cell
		// cells is the path length in cells, per engine.
		cells map[string]int
	}{
		{
			// Every engine roots at the nearer source.
			name:    "nearer-source",
			sources: []geom.Cell{{Col: 0, Row: 0}, {Col: 18, Row: 18}},
			target:  geom.Cell{Col: 19, Row: 19},
			root:    map[string]geom.Cell{"lee": {Col: 18, Row: 18}, "astar": {Col: 18, Row: 18}, "hadlock": {Col: 18, Row: 18}},
			cells:   map[string]int{"lee": 3, "astar": 3, "hadlock": 3},
		},
		{
			// Hadlock minimizes detours relative to the source a path
			// leaves, not length: from c0r10 the target is ten toward-moves
			// away with no detour, while from c10r12 the blocked c10r11
			// forces one. Lee and A* take the 5-cell path around the block.
			name:    "hadlock-detours-not-length",
			blocked: []geom.Cell{{Col: 10, Row: 11}},
			sources: []geom.Cell{{Col: 0, Row: 10}, {Col: 10, Row: 12}},
			target:  geom.Cell{Col: 10, Row: 10},
			root:    map[string]geom.Cell{"lee": {Col: 10, Row: 12}, "astar": {Col: 10, Row: 12}, "hadlock": {Col: 0, Row: 10}},
			cells:   map[string]int{"lee": 5, "astar": 5, "hadlock": 11},
		},
	}
	for _, tc := range cases {
		for _, r := range Engines() {
			g := openGrid(t)
			for _, c := range tc.blocked {
				g.Block(c)
			}
			path, _, ok := r.Search(context.Background(), g, tc.sources, tc.target)
			if !ok {
				t.Fatalf("%s/%s: multi-source search failed", tc.name, r.Name())
			}
			if want := tc.root[r.Name()]; path[0] != want {
				t.Errorf("%s/%s: path rooted at %v, want %v", tc.name, r.Name(), path[0], want)
			}
			if want := tc.cells[r.Name()]; len(path) != want {
				t.Errorf("%s/%s: path = %d cells, want %d", tc.name, r.Name(), len(path), want)
			}
		}
	}
}

func TestSearchSourceEqualsTarget(t *testing.T) {
	for _, r := range Engines() {
		g := openGrid(t)
		c := geom.Cell{Col: 3, Row: 3}
		path, _, ok := r.Search(context.Background(), g, []geom.Cell{c}, c)
		if !ok || len(path) != 1 || path[0] != c {
			t.Errorf("%s: self search = %v, %v", r.Name(), path, ok)
		}
	}
}

func TestAStarExpandsFewerThanLee(t *testing.T) {
	// The headline of Fig. 4's expansion series.
	g := openGrid(t)
	src := []geom.Cell{{Col: 0, Row: 0}}
	// A mostly-straight run: directed searches shine here, while Lee's
	// uniform wavefront floods the grid. (On a perfect diagonal the
	// Manhattan heuristic degenerates and all engines tie.)
	dst := geom.Cell{Col: 19, Row: 2}
	_, leeExp, _ := Lee{}.Search(context.Background(), g, src, dst)
	_, aExp, _ := AStar{}.Search(context.Background(), g, src, dst)
	_, hExp, _ := Hadlock{}.Search(context.Background(), g, src, dst)
	if aExp >= leeExp {
		t.Errorf("A* expansions %d not fewer than Lee %d", aExp, leeExp)
	}
	if hExp >= leeExp {
		t.Errorf("Hadlock expansions %d not fewer than Lee %d", hExp, leeExp)
	}
}

func TestEngineNames(t *testing.T) {
	names := map[string]bool{}
	for _, e := range Engines() {
		names[e.Name()] = true
	}
	for _, want := range []string{"lee", "astar", "hadlock"} {
		if !names[want] {
			t.Errorf("engine %q missing", want)
		}
	}
}

// routedDevice places and routes one benchmark with the given router.
func routedDevice(t testing.TB, name string, router Router, opts Options) (*core.Device, *Report) {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d := b.Build()
	p, err := (place.Greedy{}).Place(context.Background(), d, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	report, err := RouteAll(context.Background(), p, router, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d, report
}

func TestRouteAllBenchmarks(t *testing.T) {
	for _, name := range []string{"aquaflex_3b", "rotary_pcr", "hiv_diagnostics"} {
		for _, router := range Engines() {
			t.Run(name+"/"+router.Name(), func(t *testing.T) {
				d, report := routedDevice(t, name, router, Options{})
				if report.Total() != len(d.Connections) {
					t.Errorf("results = %d, want %d", report.Total(), len(d.Connections))
				}
				if report.CompletionRate() < 0.8 {
					t.Errorf("completion = %.2f, want >= 0.8 on a small benchmark",
						report.CompletionRate())
				}
				if report.TotalLength() <= 0 || report.TotalExpansions() <= 0 {
					t.Errorf("totals = %d µm, %d expansions",
						report.TotalLength(), report.TotalExpansions())
				}
			})
		}
	}
}

func TestRoutedSegmentsAreWellFormed(t *testing.T) {
	d, report := routedDevice(t, "aquaflex_3b", AStar{}, Options{})
	ix := d.Index()
	for _, res := range report.Results {
		if !res.Routed {
			continue
		}
		if len(res.Segments) == 0 {
			t.Errorf("net %s routed but has no segments", res.Net)
		}
		for _, seg := range res.Segments {
			if seg.Kind != core.FeatureChannel {
				t.Errorf("segment %s kind = %v", seg.ID, seg.Kind)
			}
			if seg.Source.X != seg.Sink.X && seg.Source.Y != seg.Sink.Y {
				t.Errorf("segment %s not axis-aligned: %v -> %v", seg.ID, seg.Source, seg.Sink)
			}
			if seg.Width <= 0 {
				t.Errorf("segment %s width = %d", seg.ID, seg.Width)
			}
			if cn := ix.Connection(seg.Connection); cn == nil {
				t.Errorf("segment %s references missing net %q", seg.ID, seg.Connection)
			} else if cn.Layer != seg.Layer {
				t.Errorf("segment %s on layer %q, net on %q", seg.ID, seg.Layer, cn.Layer)
			}
		}
	}
}

func TestRouteChannelWidthFromParams(t *testing.T) {
	b := core.NewBuilder("w")
	flow := b.FlowLayer()
	b.IOPort("a", flow, 200)
	b.IOPort("z", flow, 200)
	b.Connect("n", flow, "a.port1", "z.port1")
	b.Param("channelWidth", 150)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := (place.Greedy{}).Place(context.Background(), d, place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	report, err := RouteAll(context.Background(), p, Lee{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Routed() != 1 {
		t.Fatalf("net unrouted:\n%+v", report.Results)
	}
	for _, seg := range report.Results[0].Segments {
		if seg.Width != 150 {
			t.Errorf("segment width = %d, want 150 from params", seg.Width)
		}
	}
	// Explicit option overrides params.
	report, err = RouteAll(context.Background(), p, Lee{}, Options{ChannelWidth: 80})
	if err != nil {
		t.Fatal(err)
	}
	if w := report.Results[0].Segments[0].Width; w != 80 {
		t.Errorf("segment width = %d, want 80 from options", w)
	}
}

func TestRouteOrderings(t *testing.T) {
	for _, o := range []Order{OrderShortFirst, OrderLongFirst, OrderAsGiven} {
		_, report := routedDevice(t, "aquaflex_3b", AStar{}, Options{Ordering: o})
		if report.Total() == 0 {
			t.Errorf("ordering %s produced no results", o)
		}
	}
}

func TestRouteDeterminism(t *testing.T) {
	_, r1 := routedDevice(t, "rotary_pcr", Hadlock{}, Options{})
	_, r2 := routedDevice(t, "rotary_pcr", Hadlock{}, Options{})
	if r1.TotalLength() != r2.TotalLength() || r1.TotalExpansions() != r2.TotalExpansions() {
		t.Error("identical routing runs differ")
	}
}

// reportBytes canonically encodes a report for byte-comparison.
func reportBytes(t testing.TB, r *Report) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// routeConcurrently routes one placement from n goroutines at once — the
// way the serve worker gate and parallel experiments share a device and
// the pooled search arenas — and returns each call's report bytes.
func routeConcurrently(t testing.TB, p *place.Placement, router Router, n int) [][]byte {
	t.Helper()
	reports := make([]*Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = RouteAll(context.Background(), p, router, Options{})
		}(i)
	}
	wg.Wait()
	out := make([][]byte, n)
	for i := range reports {
		if errs[i] != nil {
			t.Fatalf("concurrent route %d: %v", i, errs[i])
		}
		out[i] = reportBytes(t, reports[i])
	}
	return out
}

// TestParallelNetsMatchSequential routes the same placement from several
// goroutines at once and demands each report equal a lone sequential
// route byte for byte, for every engine. Run under -race it also pins
// down that concurrent routes share the device and placement read-only.
func TestParallelNetsMatchSequential(t *testing.T) {
	for _, name := range []string{"aquaflex_3b", "rotary_pcr", "hiv_diagnostics"} {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := (place.Greedy{}).Place(context.Background(), b.Build(), place.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, router := range Engines() {
			t.Run(name+"/"+router.Name(), func(t *testing.T) {
				seq, err := RouteAll(context.Background(), p, router, Options{})
				if err != nil {
					t.Fatal(err)
				}
				want := reportBytes(t, seq)
				for i, got := range routeConcurrently(t, p, router, 3) {
					if !bytes.Equal(got, want) {
						t.Errorf("concurrent route %d differs from sequential", i)
					}
				}
			})
		}
	}
}

// FuzzParallelRouteDeterminism fuzzes the same property over arbitrary
// devices, seeded from the benchmark corpus: any device the codec accepts
// and the greedy placer can place must route identically alone and from
// two goroutines at once.
func FuzzParallelRouteDeterminism(f *testing.F) {
	for _, b := range bench.Suite() {
		if data, err := core.Marshal(b.Device()); err == nil {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := core.Unmarshal(data)
		if err != nil {
			return
		}
		// Bound the work per input: fuzzing explores determinism, not
		// router throughput.
		if len(d.Components) > 48 || len(d.Connections) > 64 {
			return
		}
		p, err := (place.Greedy{}).Place(context.Background(), d, place.Options{})
		if err != nil {
			return
		}
		seq, err := RouteAll(context.Background(), p, AStar{}, Options{})
		if err != nil {
			return // malformed placement/die: rejected before any search
		}
		want := reportBytes(t, seq)
		for i, got := range routeConcurrently(t, p, AStar{}, 2) {
			if !bytes.Equal(got, want) {
				t.Errorf("concurrent route %d differs from sequential for device %q", i, d.Name)
			}
		}
	})
}

func TestRouteEmptyDieRejected(t *testing.T) {
	d := &core.Device{Name: "x"}
	p := &place.Placement{Device: d}
	if _, err := RouteAll(context.Background(), p, Lee{}, Options{}); err == nil {
		t.Error("empty die should be rejected")
	}
}

func TestRouteUnplacedComponentRejected(t *testing.T) {
	b := core.NewBuilder("u")
	flow := b.FlowLayer()
	b.IOPort("a", flow, 200)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := &place.Placement{Device: d, Die: geom.R(0, 0, 1000, 1000),
		Origins: map[string]geom.Point{}}
	if _, err := RouteAll(context.Background(), p, Lee{}, Options{}); err == nil {
		t.Error("unplaced component should be rejected")
	}
}

func TestCompressPath(t *testing.T) {
	g := openGrid(t)
	// L-shaped path: 3 east, then 2 south.
	path := []geom.Cell{
		{Col: 0, Row: 0}, {Col: 1, Row: 0}, {Col: 2, Row: 0}, {Col: 3, Row: 0},
		{Col: 3, Row: 1}, {Col: 3, Row: 2},
	}
	segs := compressPath(g, path)
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2: %+v", len(segs), segs)
	}
	if segs[0].a != g.CenterOf(path[0]) || segs[0].b != g.CenterOf(path[3]) {
		t.Errorf("segment 0 = %+v", segs[0])
	}
	if segs[1].b != g.CenterOf(path[5]) {
		t.Errorf("segment 1 = %+v", segs[1])
	}
	if compressPath(g, path[:1]) != nil {
		t.Error("single-cell path should yield no segments")
	}
}

func TestReportAggregates(t *testing.T) {
	r := &Report{Results: []NetResult{
		{Net: "a", Routed: true, Length: 100, Expansions: 5},
		{Net: "b", Routed: false, Expansions: 7},
	}}
	if r.Routed() != 1 || r.Total() != 2 {
		t.Errorf("Routed/Total = %d/%d", r.Routed(), r.Total())
	}
	if r.CompletionRate() != 0.5 {
		t.Errorf("CompletionRate = %v", r.CompletionRate())
	}
	if r.TotalLength() != 100 || r.TotalExpansions() != 12 {
		t.Errorf("totals = %d, %d", r.TotalLength(), r.TotalExpansions())
	}
	empty := &Report{}
	if empty.CompletionRate() != 1 {
		t.Errorf("empty CompletionRate = %v", empty.CompletionRate())
	}
}

func TestRipupRecoversFailures(t *testing.T) {
	// Construct a congested bottleneck: as-given ordering with one round
	// fails at least one net; three rounds with rip-up must do no worse.
	_, oneRound := routedDevice(t, "general_purpose_mfd", Lee{},
		Options{RipupRounds: -1, Ordering: OrderAsGiven, GridPitch: 200})
	_, ripup := routedDevice(t, "general_purpose_mfd", Lee{},
		Options{RipupRounds: 4, Ordering: OrderAsGiven, GridPitch: 200})
	if ripup.Routed() < oneRound.Routed() {
		t.Errorf("rip-up routed %d nets, single round %d", ripup.Routed(), oneRound.Routed())
	}
}
