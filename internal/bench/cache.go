// Device cache: the suite generators are deterministic, so the device a
// benchmark builds never changes within a process. The experiment harness
// regenerates every table and figure from the same twelve devices; building
// each one exactly once and sharing the result across experiments (and
// across parallel-loop worker goroutines) removes redundant generator work
// without changing a single output byte.
//
// Cached devices are shared and must be treated as read-only. Every
// consumer in this repository honors that contract: the placers keep
// origins in a separate Placement, the mutator clones before injecting
// faults, and pnr clones before attaching features. Callers that need a
// private mutable copy should Clone() the cached device or call Build()
// directly.
package bench

import (
	"sync"

	"repro/internal/core"
)

// buildCache memoizes generator output per benchmark name. Entries are
// created under the map lock but built inside a per-entry sync.Once, so
// two benchmarks can build concurrently while each generator still runs at
// most once per process.
var buildCache = struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}{entries: make(map[string]*cacheEntry)}

type cacheEntry struct {
	once   sync.Once
	device *core.Device
	builds int
}

// Device returns the benchmark's device from the process-wide cache,
// building it on first use. The returned device is shared: treat it as
// read-only, or Clone() it.
func (b Benchmark) Device() *core.Device {
	buildCache.mu.Lock()
	e, ok := buildCache.entries[b.Name]
	if !ok {
		e = &cacheEntry{}
		buildCache.entries[b.Name] = e
	}
	buildCache.mu.Unlock()
	e.once.Do(func() {
		e.device = b.Build()
		e.builds++
	})
	return e.device
}

// BuildCount reports how many times the named benchmark's generator has
// run through the cache since the last ResetBuildCache. It is at most 1
// unless the cache was reset mid-flight.
func BuildCount(name string) int {
	buildCache.mu.Lock()
	defer buildCache.mu.Unlock()
	if e, ok := buildCache.entries[name]; ok {
		return e.builds
	}
	return 0
}

// TotalBuildCount sums BuildCount over all cached benchmarks.
func TotalBuildCount() int {
	buildCache.mu.Lock()
	defer buildCache.mu.Unlock()
	total := 0
	for _, e := range buildCache.entries {
		total += e.builds
	}
	return total
}

// ResetBuildCache drops every cached device and zeroes the build counters.
// Tests use it to assert the exactly-once build property of a fresh run.
func ResetBuildCache() {
	buildCache.mu.Lock()
	defer buildCache.mu.Unlock()
	buildCache.entries = make(map[string]*cacheEntry)
}
