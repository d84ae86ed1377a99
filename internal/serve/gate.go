package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// saturatedError is the gate's admission refusal: queueing was judged
// pointless, either because the bounded queue is full or because the
// estimated wait already exceeds the caller's deadline. gateDo turns it
// into an *OverloadedError (429 + Retry-After).
type saturatedError struct {
	// workers and waiting snapshot the gate at refusal time.
	workers int
	waiting int
	// estimatedWait is the projected queueing delay (zero when the gate
	// has no service-time history yet).
	estimatedWait time.Duration
}

func (e *saturatedError) Error() string {
	return fmt.Sprintf("serve: gate saturated (%d workers busy, %d waiting, ~%s estimated wait)",
		e.workers, e.waiting, e.estimatedWait.Round(time.Millisecond))
}

// gate bounds how many independently arriving requests may compute at
// once. When every slot is busy, a caller that would wait behind a full
// queue — or longer than its own context deadline, judged against an
// exponentially weighted average of recent service times — is refused
// immediately with a *saturatedError instead of blocking. Shedding changes
// only whether a request runs, never what an admitted request computes:
// callers derive their seeds from the request (par.DeriveSeed), not from
// the gate.
type gate struct {
	slots chan struct{}
	// queueDepth bounds callers blocked waiting for a slot; 0 or less
	// means unbounded (never shed on depth), matching Config.QueueDepth.
	queueDepth int
	waiting    atomic.Int64
	// ewmaNanos tracks recent fn service time; 0 means no history.
	ewmaNanos atomic.Int64
}

// newGate creates a gate admitting at most workers concurrent calls and
// at most queueDepth callers waiting for a slot (0 = unbounded). Worker
// counts below 1 select runtime.NumCPU().
func newGate(workers, queueDepth int) *gate {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	return &gate{slots: make(chan struct{}, workers), queueDepth: queueDepth}
}

// Workers reports the gate's admission limit.
func (g *gate) Workers() int { return cap(g.slots) }

// InFlight reports how many calls currently hold a slot.
func (g *gate) InFlight() int { return len(g.slots) }

// Waiting reports how many calls are blocked waiting for a slot.
func (g *gate) Waiting() int { return int(g.waiting.Load()) }

// EstimatedWait projects how long a new arrival would queue: the average
// recent service time times the number of full drain rounds ahead of it.
// Zero until the gate has served at least one call.
func (g *gate) EstimatedWait() time.Duration {
	avg := time.Duration(g.ewmaNanos.Load())
	if avg <= 0 {
		return 0
	}
	rounds := 1 + int(g.waiting.Load())/cap(g.slots)
	return avg * time.Duration(rounds)
}

// observe folds one service duration into the wait estimator. The first
// sample seeds the average directly; later samples decay with a 1/8
// weight, so the estimate tracks load shifts within a few requests.
func (g *gate) observe(d time.Duration) {
	for {
		old := g.ewmaNanos.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/8
		}
		if g.ewmaNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// Do waits for a free slot, then runs fn. It returns ctx.Err() without
// running fn when the context is cancelled while waiting (or already
// expired on admission), so queued requests abandon the line as soon as
// their caller gives up. It returns *saturatedError without queueing when
// the wait queue is full, or when the caller's deadline is closer than
// the estimated queueing delay, since admitting such a request only burns
// a slot on work whose client will have timed out.
func (g *gate) Do(ctx context.Context, fn func() error) error {
	select {
	case g.slots <- struct{}{}:
	default:
		if err := g.admit(ctx); err != nil {
			return err
		}
		g.waiting.Add(1)
		select {
		case g.slots <- struct{}{}:
			g.waiting.Add(-1)
		case <-ctx.Done():
			g.waiting.Add(-1)
			return ctx.Err()
		}
	}
	defer func() { <-g.slots }()
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	err := fn()
	g.observe(time.Since(start))
	return err
}

// admit decides whether a caller that found no free slot may queue. The
// waiting count is read without joining the queue first, so the depth
// bound is approximate under heavy contention — by at most a handful of
// racing arrivals, never unboundedly.
func (g *gate) admit(ctx context.Context) error {
	waiting := int(g.waiting.Load())
	if g.queueDepth > 0 && waiting >= g.queueDepth {
		return &saturatedError{workers: cap(g.slots), waiting: waiting, estimatedWait: g.EstimatedWait()}
	}
	if deadline, ok := ctx.Deadline(); ok {
		if est := g.EstimatedWait(); est > 0 && time.Until(deadline) < est {
			return &saturatedError{workers: cap(g.slots), waiting: waiting, estimatedWait: est}
		}
	}
	return nil
}
