package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestGateBoundsConcurrency(t *testing.T) {
	const workers = 3
	g := newGate(workers, 0)
	if g.Workers() != workers {
		t.Fatalf("Workers = %d", g.Workers())
	}
	var mu sync.Mutex
	inflight, peak := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = g.Do(context.Background(), func() error {
				mu.Lock()
				inflight++
				if inflight > peak {
					peak = inflight
				}
				mu.Unlock()
				mu.Lock()
				inflight--
				mu.Unlock()
				return nil
			})
		}()
	}
	wg.Wait()
	if peak > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", peak, workers)
	}
	if g.InFlight() != 0 {
		t.Errorf("InFlight = %d after drain", g.InFlight())
	}
}

func TestGateHonorsCancelledContext(t *testing.T) {
	g := newGate(1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := g.Do(ctx, func() error {
		t.Error("fn ran despite cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Do = %v, want context.Canceled", err)
	}
}

func TestGateReleasesSlotOnError(t *testing.T) {
	g := newGate(1, 0)
	boom := errors.New("boom")
	if err := g.Do(context.Background(), func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Do = %v", err)
	}
	// The slot must be free again: a second call succeeds immediately.
	if err := g.Do(context.Background(), func() error { return nil }); err != nil {
		t.Fatalf("second Do = %v", err)
	}
}

// hold occupies one gate slot until release is closed, reporting on held
// once the slot is acquired.
func hold(t *testing.T, g *gate, held, release chan struct{}) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = g.Do(context.Background(), func() error {
			close(held)
			<-release
			return nil
		})
	}()
	return &wg
}

// queueWaiter starts one caller that queues behind the held slot and
// waits until the gate counts it, returning its eventual Do result.
func queueWaiter(t *testing.T, g *gate) chan error {
	t.Helper()
	want := g.Waiting() + 1
	errc := make(chan error, 1)
	go func() {
		errc <- g.Do(context.Background(), func() error { return nil })
	}()
	for i := 0; i < 500 && g.Waiting() < want; i++ {
		time.Sleep(time.Millisecond)
	}
	if g.Waiting() != want {
		t.Fatalf("Waiting = %d, want %d", g.Waiting(), want)
	}
	return errc
}

func TestBoundedGateShedsWhenQueueFull(t *testing.T) {
	g := newGate(1, 1)
	held, release := make(chan struct{}), make(chan struct{})
	wg := hold(t, g, held, release)
	<-held
	waiterErr := queueWaiter(t, g)
	err := g.Do(context.Background(), func() error {
		t.Error("fn ran on a saturated gate with a full queue")
		return nil
	})
	var sat *saturatedError
	if !errors.As(err, &sat) {
		t.Fatalf("Do = %T (%v), want *saturatedError", err, err)
	}
	if sat.workers != 1 {
		t.Errorf("saturatedError.workers = %d, want 1", sat.workers)
	}
	close(release)
	wg.Wait()
	if err := <-waiterErr; err != nil {
		t.Errorf("queued waiter Do = %v, want nil", err)
	}
	// With the slot free again the same call is admitted.
	if err := g.Do(context.Background(), func() error { return nil }); err != nil {
		t.Errorf("Do after drain = %v", err)
	}
}

func TestBoundedGateQueuesUpToDepth(t *testing.T) {
	g := newGate(1, 1)
	held, release := make(chan struct{}), make(chan struct{})
	wg := hold(t, g, held, release)
	<-held
	// One waiter fits in the queue.
	waiterErr := queueWaiter(t, g)
	// A second would-be waiter is refused.
	var sat *saturatedError
	if err := g.Do(context.Background(), func() error { return nil }); !errors.As(err, &sat) {
		t.Errorf("second waiter Do = %v, want *saturatedError", err)
	}
	close(release)
	wg.Wait()
	if err := <-waiterErr; err != nil {
		t.Errorf("queued waiter Do = %v, want nil", err)
	}
}

func TestGateShedsWhenDeadlineShorterThanEstimate(t *testing.T) {
	g := newGate(1, 0)
	// Seed the service-time estimator with one slow call.
	if err := g.Do(context.Background(), func() error {
		time.Sleep(120 * time.Millisecond)
		return nil
	}); err != nil {
		t.Fatalf("seed Do = %v", err)
	}
	if g.EstimatedWait() <= 0 {
		t.Fatalf("EstimatedWait = %v after a served call, want > 0", g.EstimatedWait())
	}
	held, release := make(chan struct{}), make(chan struct{})
	wg := hold(t, g, held, release)
	<-held
	// A deadline far shorter than the ~120ms estimate is refused at
	// admission instead of queueing to certain failure.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := g.Do(ctx, func() error {
		t.Error("fn ran despite a hopeless deadline")
		return nil
	})
	var sat *saturatedError
	if !errors.As(err, &sat) {
		t.Errorf("Do = %v, want *saturatedError", err)
	} else if sat.estimatedWait <= 0 {
		t.Errorf("estimatedWait = %v, want > 0", sat.estimatedWait)
	}
	// A generous deadline still queues: deadline-aware shedding must not
	// turn into unconditional shedding.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- g.Do(ctx, func() error { return nil })
	}()
	for i := 0; i < 200 && g.Waiting() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if err := <-done; err != nil {
		t.Errorf("patient waiter Do = %v, want nil", err)
	}
}

func TestUnboundedGateNeverShedsOnDepth(t *testing.T) {
	g := newGate(1, 0)
	held, release := make(chan struct{}), make(chan struct{})
	wg := hold(t, g, held, release)
	<-held
	const waiters = 5
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			errs <- g.Do(context.Background(), func() error { return nil })
		}()
	}
	for i := 0; i < 500 && g.Waiting() < waiters; i++ {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i := 0; i < waiters; i++ {
		if err := <-errs; err != nil {
			t.Errorf("waiter %d: %v", i, err)
		}
	}
}
