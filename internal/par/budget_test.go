package par

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestBudgetTryAcquireNeverExceedsCap(t *testing.T) {
	b := NewBudget(3)
	if b.Cap() != 3 {
		t.Fatalf("Cap = %d, want 3", b.Cap())
	}
	if got := b.TryAcquire(2); got != 2 {
		t.Fatalf("TryAcquire(2) = %d, want 2", got)
	}
	if got := b.TryAcquire(5); got != 1 {
		t.Fatalf("TryAcquire(5) with 1 left = %d, want 1", got)
	}
	if got := b.TryAcquire(1); got != 0 {
		t.Fatalf("TryAcquire on empty budget = %d, want 0", got)
	}
	if b.InUse() != 3 {
		t.Fatalf("InUse = %d, want 3", b.InUse())
	}
	b.Release(3)
	if b.InUse() != 0 {
		t.Fatalf("InUse after release = %d, want 0", b.InUse())
	}
	if got := b.TryAcquire(3); got != 3 {
		t.Fatalf("TryAcquire after full release = %d, want 3", got)
	}
	b.Release(3)
}

func TestBudgetReleaseBeyondCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release beyond capacity did not panic")
		}
	}()
	NewBudget(1).Release(1)
}

func TestBudgetZeroCapacity(t *testing.T) {
	b := NewBudget(0) // resolves to NumCPU-1, may legitimately be 0
	got := b.TryAcquire(4)
	if got > b.Cap() {
		t.Fatalf("acquired %d tokens from a %d-token budget", got, b.Cap())
	}
	b.Release(got)
}

// TestBudgetPoolInPool is the nested-parallelism regression: an outer
// parallel loop whose iterations each open an inner budgeted section must
// never run more than outer+Cap() worker goroutines at once, and the total
// extra width (inner workers beyond each iteration's own goroutine) must
// never exceed the budget.
func TestBudgetPoolInPool(t *testing.T) {
	const (
		outer     = 4
		budgetCap = 2
		innerWant = 8
	)
	b := NewBudget(budgetCap)
	ctx := ContextWithBudget(context.Background(), b)

	var extraInFlight atomic.Int64
	var maxExtra atomic.Int64

	ForEach(outer, outer, func(int) {
		workers, release := AcquireWorkers(ctx, innerWant)
		defer release()
		extra := int64(workers - 1)
		cur := extraInFlight.Add(extra)
		for {
			prev := maxExtra.Load()
			if cur <= prev || maxExtra.CompareAndSwap(prev, cur) {
				break
			}
		}
		// Hold the tokens across a real inner parallel loop so sections
		// genuinely overlap.
		ForEach(workers, innerWant, func(int) {
			time.Sleep(time.Millisecond)
		})
		extraInFlight.Add(-extra)
	})
	if got := maxExtra.Load(); got > budgetCap {
		t.Fatalf("max concurrent extra workers = %d, exceeds budget %d", got, budgetCap)
	}
	if b.InUse() != 0 {
		t.Fatalf("tokens leaked: InUse = %d after all sections released", b.InUse())
	}
}

func TestAcquireWorkersWithoutBudget(t *testing.T) {
	workers, release := AcquireWorkers(context.Background(), 6)
	defer release()
	if workers != 6 {
		t.Fatalf("unbudgeted AcquireWorkers(6) = %d, want 6", workers)
	}
	if w, rel := AcquireWorkers(context.Background(), 0); w != 1 {
		t.Fatalf("AcquireWorkers(0) = %d, want 1", w)
	} else {
		rel()
	}
}
