// Multi-replica parallel tempering for the annealer. N replicas split
// each temperature level's move budget, run concurrently between level
// barriers, and exchange states by the deterministic parallel-tempering
// rule at every barrier. The winning placement is a pure function of
// (device, options, seed, N): per-replica randomness derives from the
// base seed by replica index (par.DeriveSeed), the exchange decisions
// come from a dedicated stream consumed in a fixed order, and the final
// selection ranks replicas by best cost with ties broken by replica
// index — never by goroutine completion order. Worker count only changes
// wall-clock time, which is what the determinism hammer asserts.
package place

import (
	"context"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/xrand"
)

// replicaHeatStep spreads the tempering ladder: slot r anneals at
// temp*(1 + replicaHeatStep*r), so higher slots explore hotter copies of
// the landscape and the exchange rule migrates good states toward the
// cold slot.
const replicaHeatStep = 0.5

// slotTemp is slot r's temperature at base-ladder temperature temp.
func slotTemp(temp float64, r int) float64 {
	return temp * (1 + replicaHeatStep*float64(r))
}

// replicaSeed derives replica i's seed from the schedule seed — the same
// DeriveSeed rule every parallel task uses, so a replica's random stream is a
// pure function of (seed, i).
func replicaSeed(seed uint64, i int) uint64 {
	return par.DeriveSeed(seed, "replica:"+strconv.Itoa(i))
}

// annealParallel runs the multi-replica schedule on workers goroutines.
// The caller resolved the knobs and handles the trivial cases;
// len(d.Components) >= 2 here.
func annealParallel(ctx context.Context, d *core.Device, start *Placement, opts Options, cooling float64, movesPerTemp, workers int) (*Placement, error) {
	n := opts.replicas()
	states := make([]*annealState, n)
	for i := range states {
		st := newAnnealState(d, start, replicaSeed(opts.Seed, i))
		st.replica = i
		st.replicaLabel = strconv.Itoa(i)
		states[i] = st
	}

	ctx, sp := obs.Start(ctx, "place.replicas")
	sp.SetAttr("replicas", n)
	sp.SetAttr("workers", workers)
	defer sp.End()
	spans := make([]*obs.Span, n)
	for i := range spans {
		_, spans[i] = obs.Start(ctx, "place.replica."+strconv.Itoa(i))
	}
	rec := obs.FromContext(ctx)

	// Each replica calibrates its own starting temperature from its own
	// random stream; the shared ladder starts at the deterministic maximum
	// so even the coldest slot opens hot enough for every replica.
	calib := make([]float64, n)
	par.ForEach(workers, n, func(i int) {
		st := states[i]
		calib[i] = st.calibrateTemperature(defaultInitialAccept)
		st.window = st.die.Dx()
		st.bestCost = st.cost
		st.syncBest()
	})
	baseTemp := calib[0]
	for _, c := range calib[1:] {
		if c > baseTemp {
			baseTemp = c
		}
	}

	// The level budget splits across slots; low slots absorb the
	// remainder so the total per level equals the sequential schedule's
	// movesPerTemp exactly (the Moves counter stays comparable).
	shares := make([]int, n)
	for r := range shares {
		shares[r] = movesPerTemp / n
		if r < movesPerTemp%n {
			shares[r]++
		}
	}

	// The exchange stream is separate from every replica stream and is
	// consumed in a fixed pair order each barrier, so its draws depend
	// only on (seed, level index).
	exRng := xrand.New(par.DeriveSeed(opts.Seed, "exchange"))
	slots := make([]*annealState, n)
	copy(slots, states)
	accepted := make([]int, n)
	errs := make([]error, n)
	moves := 0
	for level, temp := 0, baseTemp; temp > defaultFinalTemp; level, temp = level+1, temp*cooling {
		par.ForEach(workers, n, func(r int) {
			accepted[r], errs[r] = slots[r].runMoves(ctx, rec, slotTemp(temp, r), shares[r])
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		moves += movesPerTemp
		for r := range slots {
			slots[r].adaptWindow(accepted[r], shares[r])
		}
		// Deterministic replica exchange between adjacent slots, parity
		// alternating by level (classic even-odd sweep). The Metropolis
		// draw is taken for every considered pair, accepted or not, so
		// stream position is a function of the level index alone.
		for r := level % 2; r+1 < n; r += 2 {
			u := exRng.Float64()
			arg := (1/slotTemp(temp, r) - 1/slotTemp(temp, r+1)) * (slots[r].cost - slots[r+1].cost)
			if arg >= 0 || u < math.Exp(arg) {
				slots[r], slots[r+1] = slots[r+1], slots[r]
			}
		}
	}

	// Rank-based selection: the lowest best cost wins, ties to the lowest
	// replica index. Iterating creation order with a strict < implements
	// the tie-break exactly.
	winner := states[0]
	for _, st := range states[1:] {
		if st.bestCost < winner.bestCost {
			winner = st
		}
	}
	for i, s := range spans {
		s.SetAttr("best_cost", states[i].bestCost)
		s.End()
	}

	legal := Legalize(winner.materializeBest())
	if err := CheckLegal(legal); err != nil {
		return nil, err
	}
	legal.Moves = moves
	// Same floor as the sequential schedule: never return a result worse
	// than the legal greedy start.
	if Evaluate(legal).HPWL >= Evaluate(start).HPWL {
		start.Moves = moves
		return start, nil
	}
	return legal, nil
}
