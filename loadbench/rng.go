package main

import (
	"math"
	"math/bits"
)

// rng is a splitmix64 generator. The request lists and the committed
// output manifest depend on its exact sequence, so the benchmark carries
// its own generator instead of relying on a standard-library stream that
// may change between Go releases.
type rng struct{ s uint64 }

// newRNG derives an independent stream from a seed and a stream label.
func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for i := 0; i < len(stream); i++ {
		r.s ^= uint64(stream[i]) << (8 * uint(i%8))
		r.Uint64()
	}
	return r
}

func (r *rng) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// IntN returns a value in [0, n).
func (r *rng) IntN(n int) int {
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// Float64 returns a value in [0, 1).
func (r *rng) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with mean 1.
func (r *rng) Exp() float64 {
	return -math.Log(1 - r.Float64())
}

// Shuffle permutes n items in place (Fisher-Yates).
func (r *rng) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.IntN(i+1))
	}
}
