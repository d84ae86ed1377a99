package route

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/place"
)

// Order selects the sequence nets are routed in.
type Order string

// Net orderings. Short-first is the default: routing constrained short
// nets before long ones raises completion (the net-ordering ablation
// quantifies this).
const (
	OrderShortFirst Order = "short-first"
	OrderLongFirst  Order = "long-first"
	OrderAsGiven    Order = "as-given"
)

// Options tunes the routing flow.
type Options struct {
	// GridPitch is the routing grid cell size in µm; 0 means the default
	// of 100 (one default channel width).
	GridPitch int64
	// Ordering selects net order; empty means short-first.
	Ordering Order
	// RipupRounds bounds rip-up-and-reroute iterations; 0 means 3.
	// Negative disables rip-up entirely (one routing round).
	RipupRounds int
	// ChannelWidth is the emitted channel width in µm; 0 means the device
	// "channelWidth" param or 100.
	ChannelWidth int64
	// MaxRipups bounds targeted rip-up transactions per round; 0 means
	// max(20, nets/4). Rip-up is the expensive recovery path — every
	// transaction re-runs searches for the victims — so it is budgeted.
	MaxRipups int
}

func (o Options) maxRipups(nets int) int {
	if o.MaxRipups > 0 {
		return o.MaxRipups
	}
	n := nets / 4
	if n < 20 {
		n = 20
	}
	return n
}

func (o Options) pitch() int64 {
	if o.GridPitch <= 0 {
		return 100
	}
	return o.GridPitch
}

func (o Options) ordering() Order {
	if o.Ordering == "" {
		return OrderShortFirst
	}
	return o.Ordering
}

func (o Options) rounds() int {
	if o.RipupRounds == 0 {
		return 3
	}
	if o.RipupRounds < 0 {
		return 1
	}
	return o.RipupRounds
}

// CheckGrid reports whether RouteAll can build its routing grids for a
// placement on die under opts, without building them. It fails with an
// error wrapping geom.ErrGridTooLarge when a layer's grid would exceed
// geom.MaxGridCells, so a caller can reject the work before placing.
func CheckGrid(die geom.Rect, opts Options) error {
	if _, _, err := geom.GridDims(die, opts.pitch()); err != nil {
		return fmt.Errorf("route: %w", err)
	}
	return nil
}

// NetResult is the routing outcome for one connection.
type NetResult struct {
	// Net is the connection ID.
	Net string
	// Layer is the connection's layer.
	Layer string
	// Routed reports whether every sink was reached.
	Routed bool
	// Length is the total routed channel length in µm.
	Length int64
	// Expansions counts the search node expansions of the reported
	// round's searches for this net, across its sinks. When the net was
	// routed by a rip-up retry, it also includes the failed search that
	// triggered the retry. Searches of other rounds and of rolled-back
	// rip-ups are not counted here; parchmint_route_expansions_total
	// counts every search.
	Expansions int
	// Segments are the routed channel features (empty when unrouted).
	Segments []core.Feature
}

// Report is the outcome of routing one placed device.
type Report struct {
	// Router is the engine used.
	Router string
	// Results holds one entry per connection, in device order.
	Results []NetResult
	// Rounds is the number of routing rounds executed.
	Rounds int
}

// Routed counts fully routed nets.
func (r *Report) Routed() int {
	n := 0
	for _, res := range r.Results {
		if res.Routed {
			n++
		}
	}
	return n
}

// Total counts all nets.
func (r *Report) Total() int { return len(r.Results) }

// CompletionRate returns routed/total in [0,1]; 1 for a netless device.
func (r *Report) CompletionRate() float64 {
	if r.Total() == 0 {
		return 1
	}
	return float64(r.Routed()) / float64(r.Total())
}

// TotalLength sums routed channel length in µm.
func (r *Report) TotalLength() int64 {
	var sum int64
	for _, res := range r.Results {
		sum += res.Length
	}
	return sum
}

// TotalExpansions sums search expansions.
func (r *Report) TotalExpansions() int {
	sum := 0
	for _, res := range r.Results {
		sum += res.Expansions
	}
	return sum
}

// Features collects every routed segment, ready to append to the device.
func (r *Report) Features() []core.Feature {
	var out []core.Feature
	for _, res := range r.Results {
		out = append(out, res.Segments...)
	}
	return out
}

// netJob is one connection prepared for routing: resolved pin cells plus
// the escape-lane license (see below).
type netJob struct {
	conn  *core.Connection
	index int // position in device order
	pins  []geom.Point
	hpwl  int64
	// license lists cells this net may temporarily unblock while
	// searching: the straight lane from each pin to its component's
	// boundary. Ports that sit in a component's interior (a PORT entity's
	// centered pin on a fine grid) would otherwise be sealed inside their
	// own footprint.
	license []geom.Cell
}

// RouteAll routes every connection of a placed device with the given
// engine. Nets route on the grid of their own layer; components block the
// layers they occupy; routed paths block their layer's grid so channels
// never cross. Returns an error only for malformed inputs — unroutable
// nets are reported, not failed — or when ctx is cancelled, in which case
// the error wraps ctx.Err() and in-flight searches are abandoned within
// one ExpansionBatch.
func RouteAll(ctx context.Context, p *place.Placement, router Router, opts Options) (*Report, error) {
	d := p.Device
	ix := d.Index()
	die := p.Die
	if die.Empty() {
		return nil, fmt.Errorf("route: placement has an empty die")
	}

	// One grid per layer, with component footprints blocked on each layer
	// the component occupies.
	grids := make(map[string]*geom.Grid, len(d.Layers))
	for _, l := range d.Layers {
		g, err := geom.NewGrid(die, opts.pitch())
		if err != nil {
			return nil, fmt.Errorf("route: %w", err)
		}
		grids[l.ID] = g
	}
	for i := range d.Components {
		c := &d.Components[i]
		fp, ok := p.Footprint(c)
		if !ok {
			return nil, fmt.Errorf("route: component %q is not placed", c.ID)
		}
		for _, lid := range c.Layers {
			if g, ok := grids[lid]; ok {
				g.BlockRect(fp)
			}
		}
	}

	// Prepare jobs, and reserve every pin cell in the base grids so one
	// net's channel can never run through (and seal off) another net's
	// port. A net's own pins stay reachable: search sources are seeded
	// unconditionally and targets are always enterable.
	jobs := make([]netJob, 0, len(d.Connections))
	type pinSite struct {
		job  int
		comp *core.Component
		pos  geom.Point
	}
	var sites []pinSite
	pinOwner := make(map[string]map[geom.Cell]int) // layer -> cell -> job index
	for i := range d.Connections {
		cn := &d.Connections[i]
		job := netJob{conn: cn, index: i}
		ji := len(jobs)
		for _, t := range cn.Targets() {
			c, port, ok := ix.ResolveTarget(t)
			if !ok {
				continue
			}
			if pos, ok := p.PortPosition(c, port); ok {
				job.pins = append(job.pins, pos)
				if g, ok := grids[cn.Layer]; ok {
					cell := g.CellOf(pos)
					g.Block(cell)
					if pinOwner[cn.Layer] == nil {
						pinOwner[cn.Layer] = make(map[geom.Cell]int)
					}
					if _, taken := pinOwner[cn.Layer][cell]; !taken {
						pinOwner[cn.Layer][cell] = ji
					}
					sites = append(sites, pinSite{job: ji, comp: c, pos: pos})
				}
			}
		}
		job.hpwl = geom.HPWL(job.pins)
		jobs = append(jobs, job)
	}
	// Escape-lane licenses are computed after every pin is blocked, and
	// keep only cells that are statically blocked right now (footprints
	// and this net's own pins). Cells free at setup are excluded so a
	// later routed path through them is never unblocked by a license, and
	// lanes truncate at another net's pin cell.
	for _, site := range sites {
		g := grids[jobs[site.job].conn.Layer]
		fp, ok := p.Footprint(site.comp)
		if !ok {
			continue
		}
		owners := pinOwner[jobs[site.job].conn.Layer]
		for _, cell := range escapeLane(g, site.pos, fp) {
			if owner, isPin := owners[cell]; isPin && owner != site.job {
				break // another net's pin: stop before crossing it
			}
			if !g.Blocked(cell) {
				continue // statically free: must stay rip-up-able path space
			}
			jobs[site.job].license = append(jobs[site.job].license, cell)
		}
	}
	orderJobs(jobs, opts.ordering())

	report := &Report{Router: router.Name()}
	// Nets can flip between routed and unrouted across rounds (rerouting a
	// failed net first can displace another), so each round produces a
	// complete, internally consistent snapshot and the best snapshot wins.
	failCount := map[string]int{}
	var bestResults []NetResult
	bestRouted := -1
	// Working grids and the rip-up snapshot are allocated once and
	// overwritten each round: every layer's grid has the same shape.
	work := make(map[string]*geom.Grid, len(grids))
	var sc scratch
	for round := 1; round <= opts.rounds(); round++ {
		report.Rounds = round
		// Fresh path occupancy each round; component and pin blocks (and
		// accumulated history costs) persist via copies of the base grids.
		for lid, g := range grids {
			work[lid] = g.CloneInto(work[lid])
		}
		// Chronic failures route first.
		roundJobs := append([]netJob(nil), jobs...)
		if round > 1 {
			sort.SliceStable(roundJobs, func(a, b int) bool {
				return failCount[roundJobs[a].conn.ID] > failCount[roundJobs[b].conn.ID]
			})
		}
		results, routed := routeRound(ctx, work, &sc, router, roundJobs, opts, d, len(d.Connections))
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("route: %w", err)
		}
		for i := range results {
			if !results[i].Routed && results[i].Net != "" {
				failCount[results[i].Net]++
				addHistoryCost(grids[results[i].Layer], jobs[i].pins)
			}
		}
		if routed > bestRouted {
			bestRouted = routed
			bestResults = results
		}
		if routed == len(jobs) {
			break
		}
	}
	report.Results = bestResults
	if report.Results == nil {
		report.Results = make([]NetResult, 0)
	}
	return report, nil
}

// routedNet tracks one successfully routed net within a round: its result
// plus exactly the cells its paths newly blocked, so a targeted rip-up can
// undo it.
type routedNet struct {
	job     *netJob
	res     NetResult
	blocked []geom.Cell
}

// scratch is storage RouteAll reuses across nets and rounds: the rip-up
// snapshot grid, and searchNet's route tree and found paths, which live
// only until routeNet has blocked them.
type scratch struct {
	snapshot *geom.Grid
	tree     []geom.Cell
	paths    [][]geom.Cell
}

// roundState carries one routing round's mutable state: the working
// grids, per-connection results, the routed-net index that powers
// targeted rip-up, and the round's rip-up budget.
type roundState struct {
	work        map[string]*geom.Grid
	sc          *scratch
	router      Router
	opts        Options
	d           *core.Device
	results     []NetResult
	done        map[string]*routedNet
	ripupBudget int
}

func (rs *roundState) record(job *netJob, res NetResult, blocked []geom.Cell) {
	rs.results[job.index] = res
	if res.Routed {
		rs.done[job.conn.ID] = &routedNet{job: job, res: res, blocked: blocked}
	} else {
		delete(rs.done, job.conn.ID)
	}
}

// routeOne routes one net on the live grids, with targeted
// rip-up-and-reroute: when a net fails, the nets whose paths occupy its
// pin bounding box are ripped up, the failed net routes through the
// cleared region, and the victims re-route afterwards.
func (rs *roundState) routeOne(ctx context.Context, job *netJob, allowRipup bool) {
	g := rs.work[job.conn.Layer]
	res, blocked := routeNet(ctx, g, rs.sc, rs.router, job, rs.opts, rs.d)
	if res.Routed || !allowRipup || g == nil || rs.ripupBudget <= 0 {
		rs.record(job, res, blocked)
		return
	}
	rs.ripupBudget--
	// Targeted rip-up: clear every routed net on this layer whose path
	// enters the failed net's pin bounding box, route the failed net
	// through the cleared region, then re-route the victims. The whole
	// transaction commits only if it strictly increases the routed
	// count; otherwise the grid and results roll back.
	region := geom.BoundingBox(job.pins).Inflate(4 * g.Pitch())
	var victims []*routedNet
	for _, rn := range rs.done {
		if rn.job.conn.Layer != job.conn.Layer {
			continue
		}
		for _, c := range rn.blocked {
			if region.ContainsClosed(g.CenterOf(c)) {
				victims = append(victims, rn)
				break
			}
		}
	}
	// No victims means the region is genuinely unreachable; too many
	// means the transaction would be disruptive and slow — both skip.
	const maxVictims = 8
	if len(victims) == 0 || len(victims) > maxVictims {
		rs.record(job, res, nil)
		return
	}
	// Deterministic victim order: device order.
	sort.Slice(victims, func(a, b int) bool { return victims[a].job.index < victims[b].job.index })
	// The victims re-route without rip-up, so no nested transaction
	// overwrites the snapshot before this one commits or rolls back.
	snapshot := g.CloneInto(rs.sc.snapshot)
	rs.sc.snapshot = snapshot
	saved := make([]routedNet, len(victims))
	for i, v := range victims {
		saved[i] = *v
	}
	for _, v := range victims {
		for _, c := range v.blocked {
			g.Unblock(c)
		}
		rs.record(v.job, NetResult{Net: v.job.conn.ID, Layer: v.job.conn.Layer}, nil)
	}
	retry, retryBlocked := routeNet(ctx, g, rs.sc, rs.router, job, rs.opts, rs.d)
	retry.Expansions += res.Expansions
	rs.record(job, retry, retryBlocked)
	for _, v := range victims {
		rs.routeOne(ctx, v.job, false)
	}
	newRouted := 0
	if rs.results[job.index].Routed {
		newRouted++
	}
	for _, v := range victims {
		if rs.results[v.job.index].Routed {
			newRouted++
		}
	}
	if newRouted > len(victims) {
		return // committed: strictly more nets routed than before
	}
	// Roll back: the snapshot becomes the layer's grid, and the abandoned
	// grid becomes the next snapshot's storage.
	rs.work[job.conn.Layer], rs.sc.snapshot = snapshot, g
	rs.record(job, res, nil)
	for i := range saved {
		rs.record(saved[i].job, saved[i].res, saved[i].blocked)
	}
}

// routeRound routes all jobs once, in round order. Returns
// per-connection results (indexed by device order) and the routed count.
func routeRound(ctx context.Context, work map[string]*geom.Grid, sc *scratch, router Router, roundJobs []netJob, opts Options, d *core.Device, nConns int) ([]NetResult, int) {
	rs := &roundState{
		work:        work,
		sc:          sc,
		router:      router,
		opts:        opts,
		d:           d,
		results:     make([]NetResult, nConns),
		done:        make(map[string]*routedNet),
		ripupBudget: opts.maxRipups(len(roundJobs)),
	}
	allowRipup := opts.RipupRounds >= 0
	for i := range roundJobs {
		if ctx.Err() != nil {
			break // RouteAll reports the cancellation
		}
		rs.routeOne(ctx, &roundJobs[i], allowRipup)
	}
	return rs.results, len(rs.done)
}

// routeNet routes one multi-terminal net on the live grid: search, then
// block the found paths for later nets. The returned cells are exactly the
// free→blocked transitions (endpoints sit on cells already blocked by
// component footprints and pin reservations), so a targeted rip-up can
// undo them.
func routeNet(ctx context.Context, g *geom.Grid, sc *scratch, router Router, job *netJob, opts Options, d *core.Device) (NetResult, []geom.Cell) {
	res, paths := searchNet(ctx, g, sc, router, job, opts, d)
	var newlyBlocked []geom.Cell
	for _, path := range paths {
		for _, c := range path {
			if !g.Blocked(c) {
				g.Block(c)
				newlyBlocked = append(newlyBlocked, c)
			}
		}
	}
	return res, newlyBlocked
}

// searchNet runs one multi-terminal net's maze searches: source to first
// sink, then each further sink to the growing route tree (sequential
// Steiner approximation). The grid's net effect is zero — escape lanes
// are restored and found paths are NOT blocked; routeNet blocks them.
// Segments and length are fully rendered here. The returned paths live
// in sc and are valid until the next searchNet call.
func searchNet(ctx context.Context, g *geom.Grid, sc *scratch, router Router, job *netJob, opts Options, d *core.Device) (NetResult, [][]geom.Cell) {
	res := NetResult{Net: job.conn.ID, Layer: job.conn.Layer}
	if g == nil {
		return res, nil // undeclared layer; validator reports it
	}
	if len(job.pins) < 2 {
		return res, nil
	}
	width := opts.ChannelWidth
	if width <= 0 {
		width = int64(d.Params.GetDefault("channelWidth", 100))
	}

	// Open this net's escape lanes for the duration of the search, and
	// restore them before path blocking so lane cells inside footprints
	// never register as rip-up-reversible path cells.
	reblock := make([]geom.Cell, 0, len(job.license))
	for _, c := range job.license {
		if g.Blocked(c) {
			reblock = append(reblock, c)
			g.Unblock(c)
		}
	}
	tree := append(sc.tree[:0], g.CellOf(job.pins[0]))
	allPaths := sc.paths[:0]
	routedAll := true
	for _, sinkPt := range job.pins[1:] {
		target := g.CellOf(sinkPt)
		path, exp, ok := router.Search(ctx, g, tree, target)
		res.Expansions += exp
		if !ok {
			routedAll = false
			break
		}
		allPaths = append(allPaths, path)
		tree = append(tree, path...)
	}
	sc.tree, sc.paths = tree, allPaths
	for _, c := range reblock {
		g.Block(c)
	}
	if !routedAll {
		return res, nil
	}
	res.Routed = true
	segNum := 0
	for _, path := range allPaths {
		for _, seg := range compressPath(g, path) {
			res.Length += seg.a.Manhattan(seg.b)
			res.Segments = append(res.Segments, core.Feature{
				Kind:       core.FeatureChannel,
				ID:         job.conn.ID + "_seg" + strconv.Itoa(segNum),
				Name:       job.conn.Name,
				Layer:      job.conn.Layer,
				Connection: job.conn.ID,
				Width:      width,
				Depth:      10,
				Source:     seg.a,
				Sink:       seg.b,
			})
			segNum++
		}
	}
	return res, allPaths
}

type segment struct{ a, b geom.Point }

// compressPath merges collinear cell runs into maximal straight segments
// in device coordinates.
func compressPath(g *geom.Grid, path []geom.Cell) []segment {
	if len(path) < 2 {
		return nil
	}
	var out []segment
	start := g.CenterOf(path[0])
	prev := path[0]
	dirCol, dirRow := 0, 0
	for _, cur := range path[1:] {
		dc, dr := cur.Col-prev.Col, cur.Row-prev.Row
		if (dc != dirCol || dr != dirRow) && (dirCol != 0 || dirRow != 0) {
			out = append(out, segment{start, g.CenterOf(prev)})
			start = g.CenterOf(prev)
		}
		dirCol, dirRow = dc, dr
		prev = cur
	}
	out = append(out, segment{start, g.CenterOf(prev)})
	return out
}

// orderJobs sorts jobs by the requested strategy, stably so equal nets
// keep device order.
func orderJobs(jobs []netJob, o Order) {
	switch o {
	case OrderShortFirst:
		sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].hpwl < jobs[b].hpwl })
	case OrderLongFirst:
		sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].hpwl > jobs[b].hpwl })
	case OrderAsGiven:
		// keep device order
	}
}

// escapeLane returns the straight run of cells from a pin's cell to just
// past the nearest edge of its component footprint. For pins already on
// the boundary this is the pin cell plus one outside cell.
func escapeLane(g *geom.Grid, pin geom.Point, fp geom.Rect) []geom.Cell {
	// Pick the nearest footprint edge by device-space distance.
	dW := pin.X - fp.Min.X
	dE := fp.Max.X - pin.X
	dN := pin.Y - fp.Min.Y
	dS := fp.Max.Y - pin.Y
	dc, dr := -1, 0 // west by default
	best := dW
	if dE < best {
		best, dc, dr = dE, 1, 0
	}
	if dN < best {
		best, dc, dr = dN, 0, -1
	}
	if dS < best {
		dc, dr = 0, 1
	}
	var lane []geom.Cell
	c := g.CellOf(pin)
	for steps := 0; steps <= g.Cols()+g.Rows(); steps++ {
		lane = append(lane, c)
		if !fp.Contains(g.CenterOf(c)) {
			break // first cell outside the footprint ends the lane
		}
		c = geom.Cell{Col: c.Col + dc, Row: c.Row + dr}
		if !g.InBounds(c) {
			break
		}
	}
	return lane
}

// addHistoryCost raises routing cost around a failed net's bounding box so
// the next round's cost-aware engines steer other nets away.
func addHistoryCost(g *geom.Grid, pins []geom.Point) {
	if g == nil || len(pins) == 0 {
		return
	}
	bb := geom.BoundingBox(pins).Inflate(g.Pitch() * 2)
	lo := g.CellOf(bb.Min)
	hi := g.CellOf(bb.Max)
	for row := lo.Row; row <= hi.Row; row++ {
		for col := lo.Col; col <= hi.Col; col++ {
			g.AddCost(geom.Cell{Col: col, Row: row}, 2)
		}
	}
}
