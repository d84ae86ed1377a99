package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// entry builds a body of n payload bytes so size accounting is easy to
// reason about in tests: size() == n + entryOverhead.
func entry(n int) Entry {
	return Entry{Body: bytes.Repeat([]byte{'x'}, n)}
}

func TestKeyLengthDelimited(t *testing.T) {
	if Key([]byte("ab"), []byte("c")) == Key([]byte("a"), []byte("bc")) {
		t.Error(`Key("ab","c") == Key("a","bc"); parts are not length-delimited`)
	}
	if Key([]byte("a")) != Key([]byte("a")) {
		t.Error("Key is not deterministic")
	}
	if len(Key()) != 64 {
		t.Errorf("Key() length = %d, want 64 hex chars", len(Key()))
	}
}

func TestLRUEvictionAtByteBound(t *testing.T) {
	// Room for exactly three 100-byte entries.
	c := New(3 * (100 + entryOverhead))
	c.Put("a", entry(100))
	c.Put("b", entry(100))
	c.Put("c", entry(100))
	if st := c.Stats(); st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("after 3 puts: %+v", st)
	}
	// Touch "a" so "b" is now the least recently used.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.Put("d", entry(100))
	if _, ok := c.Get("b"); ok {
		t.Error("b survived; eviction is not least-recently-used")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted, want it retained", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > 3*(100+entryOverhead) {
		t.Errorf("bytes = %d over the %d bound", st.Bytes, 3*(100+entryOverhead))
	}
}

func TestEvictHookAndOversizeEntry(t *testing.T) {
	var evicted atomic.Int64
	c := New(2 * (50 + entryOverhead))
	c.OnEvict(func(n int) { evicted.Add(int64(n)) })
	c.Put("a", entry(50))
	c.Put("b", entry(50))
	c.Put("c", entry(50)) // evicts a
	if got := evicted.Load(); got != 1 {
		t.Errorf("evict hook saw %d, want 1", got)
	}
	// An entry larger than the whole cache is refused, evicting nothing.
	c.Put("huge", entry(1 << 20))
	if _, ok := c.Get("huge"); ok {
		t.Error("oversize entry was stored")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Errorf("entries = %d after oversize put, want 2", st.Entries)
	}
}

func TestPutReplaceAdjustsBytes(t *testing.T) {
	c := New(10_000)
	c.Put("a", entry(100))
	c.Put("a", entry(300))
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	if want := int64(300 + entryOverhead); st.Bytes != want {
		t.Errorf("bytes = %d, want %d", st.Bytes, want)
	}
}

// TestDoSingleflight hammers one key from many goroutines: exactly one
// computation may run, everyone must observe the same bytes, and the
// outcome split must be one miss with the rest hits or coalesced.
func TestDoSingleflight(t *testing.T) {
	c := New(1 << 20)
	var executions atomic.Int64
	started := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	outcomes := make([]Outcome, waiters)
	bodies := make([][]byte, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-started
			e, outcome, err := c.Do(context.Background(), "k", func() (Entry, error) {
				executions.Add(1)
				time.Sleep(20 * time.Millisecond) // let the herd pile up
				return Entry{ContentType: "text/plain", Body: []byte("payload")}, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			outcomes[i] = outcome
			bodies[i] = e.Body
		}(i)
	}
	close(started)
	wg.Wait()
	if n := executions.Load(); n != 1 {
		t.Errorf("computation ran %d times, want exactly 1", n)
	}
	misses := 0
	for i, o := range outcomes {
		if o == Miss {
			misses++
		}
		if !bytes.Equal(bodies[i], []byte("payload")) {
			t.Errorf("waiter %d body = %q", i, bodies[i])
		}
	}
	if misses != 1 {
		t.Errorf("%d misses, want exactly 1", misses)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits+st.Coalesced != waiters-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits+coalesced", st, waiters-1)
	}
}

func TestDoErrorNotStored(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", func() (Entry, error) {
		return Entry{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want boom", err)
	}
	// The failure was not cached: the next Do computes again and succeeds.
	e, outcome, err := c.Do(context.Background(), "k", func() (Entry, error) {
		return Entry{Body: []byte("ok")}, nil
	})
	if err != nil || outcome != Miss || string(e.Body) != "ok" {
		t.Errorf("retry = (%q, %v, %v), want fresh miss", e.Body, outcome, err)
	}
}

// TestDoLeaderCancelledWaiterRetries pins the retry rule: a waiter whose
// leader was cancelled must not inherit the cancellation — it becomes the
// new leader and computes the result itself.
func TestDoLeaderCancelledWaiterRetries(t *testing.T) {
	c := New(1 << 20)
	leaderIn := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	var leaderDone sync.WaitGroup
	leaderDone.Add(1)
	go func() {
		defer leaderDone.Done()
		_, _, err := c.Do(leaderCtx, "k", func() (Entry, error) {
			close(leaderIn)
			<-leaderCtx.Done()
			return Entry{}, leaderCtx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader Do = %v, want context.Canceled", err)
		}
	}()
	<-leaderIn
	var followerStarted sync.WaitGroup
	followerStarted.Add(1)
	var followerErr error
	var followerEntry Entry
	go func() {
		defer followerStarted.Done()
		followerEntry, _, followerErr = c.Do(context.Background(), "k", func() (Entry, error) {
			return Entry{Body: []byte("recomputed")}, nil
		})
	}()
	// Give the follower a moment to join the flight, then kill the leader.
	time.Sleep(10 * time.Millisecond)
	cancelLeader()
	leaderDone.Wait()
	followerStarted.Wait()
	if followerErr != nil {
		t.Fatalf("follower inherited the leader's fate: %v", followerErr)
	}
	if string(followerEntry.Body) != "recomputed" {
		t.Errorf("follower body = %q, want recomputed", followerEntry.Body)
	}
}

func TestDoWaiterHonorsOwnContext(t *testing.T) {
	c := New(1 << 20)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "k", func() (Entry, error) {
			close(leaderIn)
			<-release
			return Entry{Body: []byte("late")}, nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := c.Do(ctx, "k", func() (Entry, error) { return Entry{}, nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("waiter Do = %v, want its own deadline error", err)
	}
	close(release)
}

// TestDoConcurrentDistinctKeys drives many keys at once under -race to
// shake out lock ordering bugs between the LRU and the flight table.
func TestDoConcurrentDistinctKeys(t *testing.T) {
	c := New(64 * (8 + entryOverhead))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", i%20)
				e, _, err := c.Do(context.Background(), key, func() (Entry, error) {
					return Entry{Body: []byte(key)}, nil
				})
				if err != nil {
					t.Errorf("Do(%s): %v", key, err)
					return
				}
				if string(e.Body) != key {
					t.Errorf("Do(%s) body = %q", key, e.Body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestLeaderPanicReleasesWaiters(t *testing.T) {
	c := New(1 << 20)
	leaderIn := make(chan struct{})
	boom := make(chan struct{})
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		_, _, _ = c.Do(context.Background(), "k", func() (Entry, error) {
			close(leaderIn)
			<-boom
			panic("kaboom")
		})
	}()
	<-leaderIn
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() (Entry, error) {
			return Entry{}, nil
		})
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(boom)
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("waiter err = %v, want a panicked error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter blocked forever after leader panic")
	}
}

func TestKeyFromMatchesKey(t *testing.T) {
	cases := [][][]byte{
		{},
		{nil},
		{[]byte("")},
		{[]byte("op"), []byte(`{"bench":"rotary_pcr"}`), {1, 2, 3, 4, 5, 6, 7, 8}},
		{[]byte("a"), nil, []byte("b")},
		{bytes.Repeat([]byte{0xff}, 1<<12)},
	}
	for _, parts := range cases {
		var framed []byte
		for _, p := range parts {
			framed = AppendPart(framed, p)
		}
		if got, want := KeyFrom(framed), Key(parts...); got != want {
			t.Errorf("KeyFrom(%d parts) = %s, Key = %s", len(parts), got, want)
		}
	}
	// Framing, not concatenation: part boundaries must matter either way.
	if KeyFrom(AppendPart(AppendPart(nil, []byte("ab")), []byte("c"))) ==
		KeyFrom(AppendPart(AppendPart(nil, []byte("a")), []byte("bc"))) {
		t.Fatal("KeyFrom collides across part boundaries")
	}
}

func TestLookupCountsHitsOnly(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Lookup("absent"); ok {
		t.Fatal("Lookup reported a phantom entry")
	}
	if st := c.Stats(); st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("Lookup on absence moved counters: %+v", st)
	}
	c.Put("k", Entry{ContentType: "text/plain", Body: []byte("v")})
	ent, ok := c.Lookup("k")
	if !ok || string(ent.Body) != "v" {
		t.Fatalf("Lookup(k) = %v, %v", ent, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("Lookup hit counted wrong: %+v", st)
	}
	// LookupBytes is the same probe over a byte-slice key.
	if _, ok := c.LookupBytes([]byte("absent")); ok {
		t.Fatal("LookupBytes reported a phantom entry")
	}
	if ent, ok := c.LookupBytes([]byte("k")); !ok || string(ent.Body) != "v" {
		t.Fatalf("LookupBytes(k) = %v, %v", ent, ok)
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("LookupBytes counted wrong: %+v", st)
	}
}

// TestKeyEmptyParts: empty parts are real parts — the length frame makes
// Key(), Key(""), and Key("","") all distinct addresses, so an absent
// component can never collide with a present-but-empty one.
func TestKeyEmptyParts(t *testing.T) {
	keys := []string{
		Key(),
		Key([]byte{}),
		Key([]byte{}, []byte{}),
		Key([]byte("a"), []byte{}),
		Key([]byte{}, []byte("a")),
		Key([]byte("a")),
	}
	seen := map[string]int{}
	for i, k := range keys {
		if len(k) != 64 {
			t.Errorf("key %d has length %d, want 64", i, len(k))
		}
		if j, dup := seen[k]; dup {
			t.Errorf("key %d collides with key %d: %s", i, j, k)
		}
		seen[k] = i
	}
}

// TestKeyDelimiterInParts: a part containing bytes that look exactly like
// the length frame (8 little-endian length bytes) must not be confusable
// with the frame itself. The classic attack on naive concatenation:
// part1+frame(part2) as a single part versus the two-part split.
func TestKeyDelimiterInParts(t *testing.T) {
	part := []byte("payload")
	// frame is what AppendPart would prepend for "x": 8 LE length bytes.
	frame := []byte{1, 0, 0, 0, 0, 0, 0, 0}
	embedded := append(append(append([]byte{}, part...), frame...), 'x')
	split := Key(part, []byte("x"))
	joined := Key(embedded)
	if split == joined {
		t.Errorf("Key(part, \"x\") == Key(part+frame(\"x\")); framing is forgeable")
	}
	// The same property through the incremental construction path.
	var buf []byte
	buf = AppendPart(buf, part)
	buf = AppendPart(buf, []byte("x"))
	if KeyFrom(buf) != split {
		t.Error("KeyFrom(AppendPart...) disagrees with Key over the same parts")
	}
	var buf2 []byte
	buf2 = AppendPart(buf2, embedded)
	if KeyFrom(buf2) != joined {
		t.Error("KeyFrom over the embedded part disagrees with Key")
	}
}

// TestAppendPartStringMatchesAppendPart pins the two frame builders to
// identical bytes, including for the empty string.
func TestAppendPartStringMatchesAppendPart(t *testing.T) {
	for _, s := range []string{"", "a", "hello world", string([]byte{0, 1, 2, 255})} {
		a := AppendPart(nil, []byte(s))
		b := AppendPartString(nil, s)
		if !bytes.Equal(a, b) {
			t.Errorf("AppendPart(%q) = %x, AppendPartString = %x", s, a, b)
		}
	}
}
