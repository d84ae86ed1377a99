// Package cache is a content-addressed result cache for deterministic
// computations: a size-bounded LRU over immutable response entries plus
// singleflight deduplication of concurrent identical computations.
//
// The cache is safe precisely because of the repository's determinism
// contract: a key is derived from everything that influences an output
// (endpoint, canonicalized request body, resolved seed, options), and
// identical inputs produce byte-identical outputs, so replaying a stored
// entry is indistinguishable from recomputing it. Nothing in this package
// knows about HTTP or the pipeline — it stores opaque entries under
// opaque keys.
package cache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
)

// Entry is one immutable cached result. Body must not be mutated after
// the entry is handed to the cache; every reader shares the same slice.
type Entry struct {
	ContentType string
	Body        []byte
}

// entryOverhead approximates the per-entry bookkeeping cost (map slot,
// list element, key string) charged against the byte bound, so a cache
// of many tiny entries cannot balloon past its configured size.
const entryOverhead = 128

func (e Entry) size() int64 {
	return int64(len(e.Body)+len(e.ContentType)) + entryOverhead
}

// Outcome classifies how a Do call was satisfied.
type Outcome int

const (
	// Miss means this caller computed the entry (and stored it on success).
	Miss Outcome = iota
	// Hit means the entry was served from the LRU.
	Hit
	// Coalesced means the caller piggybacked on a concurrent identical
	// computation started by another caller.
	Coalesced
)

// String returns the lowercase wire rendering used in response headers
// and metric labels.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// Key hashes length-delimited parts into a content address (hex SHA-256).
// Length delimiting keeps distinct splits distinct: Key("ab","c") and
// Key("a","bc") are different addresses.
func Key(parts ...[]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// AppendPart appends one length-framed key part to dst, using exactly
// the framing Key feeds the hash. Callers on allocation-sensitive paths
// build the frame incrementally in a reused buffer and hash it once with
// KeyFrom instead of assembling a parts slice for Key.
func AppendPart(dst, part []byte) []byte {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(part)))
	dst = append(dst, n[:]...)
	return append(dst, part...)
}

// AppendPartString is AppendPart for a string part, avoiding the []byte
// conversion allocation.
func AppendPartString(dst []byte, part string) []byte {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(part)))
	dst = append(dst, n[:]...)
	return append(dst, part...)
}

// KeyFrom hashes an AppendPart-framed buffer into an address. For any
// part list, KeyFrom over the concatenated frames returns the same
// string as Key over the parts — pinned by TestKeyFromMatchesKey — so
// the two construction paths share one address space. Its only
// allocation is the returned string.
func KeyFrom(framed []byte) string {
	sum := sha256.Sum256(framed)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Coalesced uint64
	Evictions uint64
	Entries   int
	Bytes     int64
}

// call is one in-flight computation that concurrent identical requests
// coalesce onto.
type call struct {
	done  chan struct{}
	entry Entry
	err   error
}

// errLeaderPanicked is handed to waiters whose leader panicked out of fn;
// the panic itself propagates on the leader's goroutine.
var errLeaderPanicked = errors.New("cache: computation panicked")

// Cache is a size-bounded LRU with singleflight admission. The zero value
// is not usable; construct with New.
type Cache struct {
	maxBytes int64
	onEvict  func(evicted int)

	mu     sync.Mutex
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	flight map[string]*call
	bytes  int64

	hits, misses, coalesced, evictions uint64
}

// node is the LRU element payload.
type node struct {
	key   string
	entry Entry
}

// New creates a cache bounded to roughly maxBytes of stored entries
// (bodies plus per-entry overhead). maxBytes must be positive.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		panic(fmt.Sprintf("cache: non-positive byte bound %d", maxBytes))
	}
	return &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		flight:   make(map[string]*call),
	}
}

// OnEvict registers fn to be called (outside the cache lock) with the
// number of entries each store operation evicted. Set it before the cache
// is shared between goroutines.
func (c *Cache) OnEvict(fn func(evicted int)) { c.onEvict = fn }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
	}
}

// Get returns the entry stored under key, refreshing its recency. A found
// entry counts as a hit, an absent one as a miss.
func (c *Cache) Get(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return Entry{}, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*node).entry, true
}

// Lookup returns the entry stored under key, counting a hit and
// refreshing recency when present. Unlike Get it records nothing on
// absence, so a Lookup-then-Do fast path — probe without building a
// compute closure, fall into Do only on a miss — attributes exactly one
// outcome to the request instead of a phantom extra miss.
func (c *Cache) Lookup(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return Entry{}, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*node).entry, true
}

// LookupBytes is Lookup for a key held in a byte slice, so a caller
// deriving keys in a stack buffer probes without materializing a string.
func (c *Cache) LookupBytes(key []byte) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		return Entry{}, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*node).entry, true
}

// Put stores entry under key, evicting least-recently-used entries until
// the cache fits its byte bound again. An entry larger than the whole
// bound is not stored at all.
func (c *Cache) Put(key string, e Entry) {
	c.mu.Lock()
	evicted := c.put(key, e)
	c.mu.Unlock()
	c.notifyEvict(evicted)
}

// put inserts or replaces the entry and trims the tail; caller holds mu.
// It returns how many entries were evicted.
func (c *Cache) put(key string, e Entry) int {
	if el, ok := c.items[key]; ok {
		n := el.Value.(*node)
		c.bytes += e.size() - n.entry.size()
		n.entry = e
		c.ll.MoveToFront(el)
	} else {
		if e.size() > c.maxBytes {
			return 0
		}
		c.items[key] = c.ll.PushFront(&node{key: key, entry: e})
		c.bytes += e.size()
	}
	evicted := 0
	// The Len() > 1 guard always keeps the entry just touched; everything
	// behind it is fair game.
	for c.bytes > c.maxBytes && c.ll.Len() > 1 {
		el := c.ll.Back()
		n := el.Value.(*node)
		c.ll.Remove(el)
		delete(c.items, n.key)
		c.bytes -= n.entry.size()
		c.evictions++
		evicted++
	}
	return evicted
}

func (c *Cache) notifyEvict(n int) {
	if n > 0 && c.onEvict != nil {
		c.onEvict(n)
	}
}

// Do returns the entry stored under key, computing it with fn on a miss.
// Concurrent Do calls for the same key coalesce: exactly one caller (the
// leader) runs fn while the rest wait for its result, so a thundering
// herd of identical requests costs one computation. Errors are handed to
// every waiter but never stored — the next Do retries. A waiter whose
// leader failed with a context error (the leader's caller gave up, not
// the computation itself) retries with its own fn instead of inheriting a
// cancellation that was never its own.
func (c *Cache) Do(ctx context.Context, key string, fn func() (Entry, error)) (Entry, Outcome, error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.hits++
			e := el.Value.(*node).entry
			c.mu.Unlock()
			return e, Hit, nil
		}
		if fl, ok := c.flight[key]; ok {
			c.coalesced++
			c.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return Entry{}, Coalesced, ctx.Err()
			}
			if fl.err == nil {
				return fl.entry, Coalesced, nil
			}
			if isContextErr(fl.err) && ctx.Err() == nil {
				continue
			}
			return Entry{}, Coalesced, fl.err
		}
		fl := &call{done: make(chan struct{})}
		c.flight[key] = fl
		c.misses++
		c.mu.Unlock()
		evicted := c.lead(key, fl, fn)
		c.notifyEvict(evicted)
		return fl.entry, Miss, fl.err
	}
}

// lead runs the computation as the flight's leader and publishes the
// result. The deferred cleanup runs even if fn panics, so waiters get an
// error instead of blocking forever while the panic propagates on the
// leader's goroutine.
func (c *Cache) lead(key string, fl *call, fn func() (Entry, error)) (evicted int) {
	completed := false
	defer func() {
		c.mu.Lock()
		delete(c.flight, key)
		if !completed {
			fl.err = errLeaderPanicked
		} else if fl.err == nil {
			evicted = c.put(key, fl.entry)
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.entry, fl.err = fn()
	completed = true
	return
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
