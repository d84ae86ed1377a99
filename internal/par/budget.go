package par

import (
	"context"
	"runtime"
	"sync/atomic"
)

// Budget is the shared CPU ledger for nested parallelism: when the
// request level (the service's admission gate, an outer ForEach) and a
// solver's internal fan-out (solve level) both want workers, they draw
// extra-worker tokens from one Budget so the process never runs more
// compute goroutines than the machine has cores to give them.
//
// The ledger counts *extra* workers only. Every caller already owns its
// own goroutine — an admitted request, a loop worker — so a parallel
// section that acquires k tokens runs on 1+k goroutines. Acquisition is strictly
// non-blocking (TryAcquire hands out whatever is available, possibly
// zero), which is what makes nesting deadlock-free by construction: a
// solve inside a saturated outer gate simply degrades to sequential
// execution instead of waiting for tokens the outer level will never
// release. Degrading is always safe because worker counts never influence
// results — that is the package's determinism contract.
type Budget struct {
	tokens chan struct{}
	// inUse tracks currently acquired tokens for observability.
	inUse atomic.Int64
}

// NewBudget creates a budget of n extra-worker tokens. Values below 1
// select runtime.NumCPU()-1 (the calling goroutines themselves account
// for the remaining core), floored at 0 tokens — a valid, always-empty
// budget on a single-core machine.
func NewBudget(n int) *Budget {
	if n < 1 {
		n = runtime.NumCPU() - 1
		if n < 0 {
			n = 0
		}
	}
	b := &Budget{tokens: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		b.tokens <- struct{}{}
	}
	return b
}

// Cap reports the budget's total token count.
func (b *Budget) Cap() int { return cap(b.tokens) }

// InUse reports how many tokens are currently acquired.
func (b *Budget) InUse() int { return int(b.inUse.Load()) }

// TryAcquire takes up to n tokens without blocking and returns how many
// it got (possibly zero). The caller must Release exactly that many.
func (b *Budget) TryAcquire(n int) int {
	got := 0
	for got < n {
		select {
		case <-b.tokens:
			got++
		default:
			b.inUse.Add(int64(got))
			return got
		}
	}
	b.inUse.Add(int64(got))
	return got
}

// Release returns n tokens to the budget. Releasing more than was
// acquired panics (the channel send would block), which converts a
// bookkeeping bug into a loud failure instead of silent over-parallelism.
func (b *Budget) Release(n int) {
	b.inUse.Add(int64(-n))
	for i := 0; i < n; i++ {
		select {
		case b.tokens <- struct{}{}:
		default:
			panic("par: Budget.Release beyond capacity")
		}
	}
}

// budgetKey carries a Budget through a context.
type budgetKey struct{}

// IsBudgetKey reports whether key is the context key BudgetFrom looks
// up. Custom context implementations (the HTTP service's pooled request
// context) use it to answer budget lookups directly instead of paying a
// WithValue wrapper per request.
func IsBudgetKey(key any) bool {
	_, ok := key.(budgetKey)
	return ok
}

// ContextWithBudget attaches a CPU budget to the context. The parallel
// section below (the multi-replica annealer) sizes its worker fan-out
// against it via AcquireWorkers. A nil budget returns ctx unchanged.
func ContextWithBudget(ctx context.Context, b *Budget) context.Context {
	if b == nil {
		return ctx
	}
	return context.WithValue(ctx, budgetKey{}, b)
}

// BudgetFrom returns the context's budget, or nil when none is attached
// (parallel sections then fan out to their requested width unbudgeted).
func BudgetFrom(ctx context.Context) *Budget {
	b, _ := ctx.Value(budgetKey{}).(*Budget)
	return b
}

// AcquireWorkers resolves the worker count for a parallel section that
// wants `want` workers: without a context budget it grants the full
// request; with one it grants 1 (the caller's own goroutine) plus as many
// extra tokens as are free right now, never blocking. The returned
// release func must be called when the section ends; it is never nil.
//
// Worker counts sized this way bound compute goroutines without ever
// changing results: the sections this feeds are deterministic at any
// width, so a budget-starved solve is merely slower, not different.
func AcquireWorkers(ctx context.Context, want int) (int, func()) {
	if want < 1 {
		want = 1
	}
	b := BudgetFrom(ctx)
	if b == nil || want == 1 {
		return want, func() {}
	}
	got := b.TryAcquire(want - 1)
	return 1 + got, func() { b.Release(got) }
}
