// Package par holds the repository's parallelism primitives: one
// order-preserving parallel loop (ForEach) and the seed-derivation rule
// that keeps randomized work deterministic under any scheduling
// (DeriveSeed).
// It sits below everything that fans out — the placer's replica
// annealing, the experiment harness and the HTTP service — so each imports
// it directly. Every caller passes its worker count explicitly; there is
// no process-wide default.
//
// The determinism contract every user of this package relies on:
//
//   - A task's seed is a pure function of a base seed and the task's ID
//     (DeriveSeed), never of submission order, completion order, or which
//     worker picked the task up.
//   - Results land in caller-provided slots indexed by task position, so
//     aggregation order equals task order, not completion order.
//   - Shared inputs (cached benchmark devices) are read-only.
//
// Under that contract the parallel paths produce byte-identical artifacts
// to the sequential ones, which the determinism tests assert.
package par

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DeriveSeed maps (base, id) to a task seed. The ID is folded with FNV-1a
// and the result is diffused through a SplitMix64 round, so distinct task
// IDs get well-separated seeds and the same task always gets the same seed
// regardless of scheduling. This is the only sanctioned way to seed
// randomized work inside a parallel region.
func DeriveSeed(base uint64, id string) uint64 {
	const (
		fnvOffset = 1469598103934665603
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime
	}
	z := (base ^ h) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ForEach runs fn(0..n-1) over a bounded set of worker goroutines and
// blocks until all calls return. workers <= 1 degenerates to a plain loop
// on the calling goroutine, which is the sequential path the parallel one
// must match byte-for-byte. Iterations are handed out in index order,
// and fn reports results by writing slot i of a caller-owned slice. A
// panicking iteration stops nothing else; the first panic in index order
// is re-raised on the caller's goroutine after all workers drain.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	panics := make([]any, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = r
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	for i, r := range panics {
		if r != nil {
			panic(fmt.Sprintf("par: iteration %d panicked: %v", i, r))
		}
	}
}
