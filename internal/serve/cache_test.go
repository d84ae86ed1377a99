package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// newCachedServer builds a server with the result cache enabled and
// returns it alongside its handler, so tests can reach the cache stats.
func newCachedServer(t *testing.T, cfg Config) (*Server, http.Handler) {
	t.Helper()
	if cfg.BaseSeed == 0 {
		cfg.BaseSeed = BaseSeedDefault
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 16 << 20
	}
	s := New(cfg)
	return s, s.Handler()
}

// TestCacheMissThenHitByteIdentical is the acceptance check on the
// tentpole: the first request computes (miss), the second replays (hit),
// and the cached bytes equal both the fresh bytes and the bytes a
// cache-less server computes for the same body.
func TestCacheMissThenHitByteIdentical(t *testing.T) {
	const body = `{"bench":"aquaflex_3b","placer":"greedy"}`
	_, cached := newCachedServer(t, Config{Workers: 2})
	first := do(t, cached, "POST", "/v1/pnr", body)
	if first.Code != http.StatusOK {
		t.Fatalf("first: status = %d: %s", first.Code, first.Body)
	}
	if got := first.Header().Get(cacheHeader); got != "miss" {
		t.Errorf("first %s = %q, want miss", cacheHeader, got)
	}
	second := do(t, cached, "POST", "/v1/pnr", body)
	if second.Code != http.StatusOK {
		t.Fatalf("second: status = %d: %s", second.Code, second.Body)
	}
	if got := second.Header().Get(cacheHeader); got != "hit" {
		t.Errorf("second %s = %q, want hit", cacheHeader, got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cached response differs from freshly computed response")
	}
	// A cache-less server must produce the same bytes: the cache can only
	// replay what determinism already guarantees.
	plain := do(t, newTestServer(2), "POST", "/v1/pnr", body)
	if plain.Code != http.StatusOK {
		t.Fatalf("uncached: status = %d: %s", plain.Code, plain.Body)
	}
	if h := plain.Header().Get(cacheHeader); h != "" {
		t.Errorf("cache-off server sent %s = %q, want none", cacheHeader, h)
	}
	if !bytes.Equal(plain.Body.Bytes(), first.Body.Bytes()) {
		t.Error("cache-on and cache-off responses differ")
	}
}

// TestCacheHammerSingleExecution drives one request body from many
// goroutines at once; under -race this doubles as the data-race check on
// the cache. Exactly one pipeline execution may happen (the singleflight
// counter), and every response must be a byte-identical 200.
func TestCacheHammerSingleExecution(t *testing.T) {
	// The gzip round also pins the stored encoding: concurrent first
	// requests compress it once (one more cache miss), every client gets
	// the same wire bytes, and the variant moves no outcome counter.
	for _, tc := range []struct {
		acceptEncoding string
		entries        int
	}{{"", 1}, {"gzip", 2}} {
		s, h := newCachedServer(t, Config{Workers: 4})
		const body = `{"bench":"aquaflex_3b","placer":"greedy"}`
		const goroutines = 12
		bodies := make([][]byte, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := httptest.NewRequest("POST", "/v1/pnr", strings.NewReader(body))
				if tc.acceptEncoding != "" {
					r.Header.Set("Accept-Encoding", tc.acceptEncoding)
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					t.Errorf("goroutine %d: status %d: %s", g, w.Code, w.Body)
					return
				}
				if o := w.Header().Get(cacheHeader); o != "miss" && o != "hit" && o != "coalesced" {
					t.Errorf("goroutine %d: %s = %q", g, cacheHeader, o)
				}
				bodies[g] = w.Body.Bytes()
			}(g)
		}
		wg.Wait()
		for i := 1; i < goroutines; i++ {
			if bodies[i] != nil && !bytes.Equal(bodies[i], bodies[0]) {
				t.Fatalf("Accept-Encoding %q: response %d differs under concurrency", tc.acceptEncoding, i)
			}
		}
		st := s.cache.Stats()
		if want := uint64(tc.entries); st.Misses != want {
			t.Errorf("Accept-Encoding %q: cache misses = %d, want %d (one pipeline execution, one compression per encoding)",
				tc.acceptEncoding, st.Misses, want)
		}
		if want := uint64(tc.entries * (goroutines - 1)); st.Hits+st.Coalesced != want {
			t.Errorf("Accept-Encoding %q: hits+coalesced = %d, want %d", tc.acceptEncoding, st.Hits+st.Coalesced, want)
		}
		text := do(t, h, "GET", "/metrics", "").Body.String()
		for _, needle := range []string{
			`parchmint_cache_requests_total{endpoint="pnr",outcome="miss"} 1`,
			"# TYPE parchmint_cache_evictions_total counter",
			fmt.Sprintf("parchmint_cache_entries %d", tc.entries),
		} {
			if !strings.Contains(text, needle) {
				t.Errorf("Accept-Encoding %q: metrics missing %q\n%s", tc.acceptEncoding, needle, text)
			}
		}
		// The outcome counters sum to one per request, as without gzip.
		outcomes := 0
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, `parchmint_cache_requests_total{endpoint="pnr",`) {
				_, v, _ := strings.Cut(line, "} ")
				n, _ := strconv.Atoi(v)
				outcomes += n
			}
		}
		if outcomes != goroutines {
			t.Errorf("Accept-Encoding %q: %d cache outcomes counted for %d requests", tc.acceptEncoding, outcomes, goroutines)
		}
	}
}

// TestCacheKeyCanonicalization: request bodies that decode to the same
// envelope — reordered fields, extra whitespace, unknown fields — share
// one cache entry, because the key hashes the canonical form.
func TestCacheKeyCanonicalization(t *testing.T) {
	s, h := newCachedServer(t, Config{Workers: 2})
	variants := []string{
		`{"bench":"rotary_pcr"}`,
		`{ "bench" : "rotary_pcr" }`,
		`{"bench":"rotary_pcr","unknown_field":42}`,
	}
	var first []byte
	for i, body := range variants {
		w := do(t, h, "POST", "/v1/stats", body)
		if w.Code != http.StatusOK {
			t.Fatalf("variant %d: status = %d: %s", i, w.Code, w.Body)
		}
		want := "hit"
		if i == 0 {
			want = "miss"
			first = w.Body.Bytes()
		} else if !bytes.Equal(w.Body.Bytes(), first) {
			t.Errorf("variant %d body differs", i)
		}
		if got := w.Header().Get(cacheHeader); got != want {
			t.Errorf("variant %d: %s = %q, want %q", i, cacheHeader, got, want)
		}
	}
	if st := s.cache.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1 shared entry", st.Entries)
	}
}

// TestCacheKeySeparatesOptionsAndSeeds: envelopes that change the output
// (engine choice, explicit seed, endpoint) must not share entries.
func TestCacheKeySeparatesOptionsAndSeeds(t *testing.T) {
	s, h := newCachedServer(t, Config{Workers: 2})
	for i, req := range []struct{ path, body string }{
		{"/v1/pnr", `{"bench":"aquaflex_3b","placer":"greedy"}`},
		{"/v1/pnr", `{"bench":"aquaflex_3b","placer":"greedy","seed":7}`},
		{"/v1/stats", `{"bench":"aquaflex_3b"}`},
	} {
		w := do(t, h, "POST", req.path, req.body)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status = %d: %s", i, w.Code, w.Body)
		}
		if got := w.Header().Get(cacheHeader); got != "miss" {
			t.Errorf("request %d: %s = %q, want miss", i, cacheHeader, got)
		}
	}
	if st := s.cache.Stats(); st.Entries != 3 {
		t.Errorf("entries = %d, want 3 distinct entries", st.Entries)
	}
}

// TestCacheErrorResponsesNotCached: failures pass through uncached, so a
// transient error cannot be replayed to later healthy requests.
func TestCacheErrorResponsesNotCached(t *testing.T) {
	s, h := newCachedServer(t, Config{Workers: 2})
	for rep := 0; rep < 2; rep++ {
		w := do(t, h, "POST", "/v1/stats", `{"bench":"nope"}`)
		if w.Code != http.StatusNotFound {
			t.Fatalf("rep %d: status = %d", rep, w.Code)
		}
		if hdr := w.Header().Get(cacheHeader); hdr != "" {
			t.Errorf("rep %d: error response carries %s = %q", rep, cacheHeader, hdr)
		}
	}
	if st := s.cache.Stats(); st.Entries != 0 {
		t.Errorf("entries = %d after errors only, want 0", st.Entries)
	}
}

// saturate occupies every worker slot and fills the wait queue so the
// next admission sheds. It returns a release func that drains everything.
func saturate(t *testing.T, s *Server, queued int) func() {
	t.Helper()
	release := make(chan struct{})
	var wg sync.WaitGroup
	workers := s.gate.Workers()
	for i := 0; i < workers; i++ {
		held := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.gate.Do(context.Background(), func() error {
				close(held)
				<-release
				return nil
			})
		}()
		<-held
	}
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.gate.Do(context.Background(), func() error { return nil })
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.Waiting() < queued {
		if time.Now().After(deadline) {
			t.Fatalf("gate never reached %d waiters", queued)
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		close(release)
		wg.Wait()
	}
}

// TestShedding429 pins the load-shedding contract: a request that would
// queue past the configured depth is refused with 429, a Retry-After
// hint, the stable "overloaded" error code, and a shed counter sample.
func TestShedding429(t *testing.T) {
	s, h := newCachedServer(t, Config{Workers: 1, QueueDepth: 1})
	defer saturate(t, s, 1)()
	w := do(t, h, "POST", "/v1/pnr", `{"bench":"rotary_pcr"}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", w.Code, w.Body)
	}
	ra := w.Header().Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", ra)
	}
	var eb struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Code != "overloaded" {
		t.Errorf("error body = %s (err %v), want code overloaded", w.Body, err)
	}
	text := do(t, h, "GET", "/metrics", "").Body.String()
	if !strings.Contains(text, `parchmint_shed_total{endpoint="pnr"} 1`) {
		t.Errorf("metrics missing shed counter:\n%s", text)
	}
	if !strings.Contains(text, "parchmint_queue_waiting 1") {
		t.Errorf("metrics missing queue_waiting gauge:\n%s", text)
	}
}

// TestHealthzUnderSaturatedGate: health and catalog endpoints never gate
// on the worker pool, so probes keep answering while the pipeline sheds.
func TestHealthzUnderSaturatedGate(t *testing.T) {
	s, h := newCachedServer(t, Config{Workers: 1, QueueDepth: 1, RequestTimeout: time.Hour})
	defer saturate(t, s, 1)()
	if w := do(t, h, "GET", "/healthz", ""); w.Code != http.StatusOK {
		t.Errorf("healthz under saturation: status = %d", w.Code)
	}
	if w := do(t, h, "GET", "/v1/bench", ""); w.Code != http.StatusOK {
		t.Errorf("bench list under saturation: status = %d", w.Code)
	}
	// The pipeline itself sheds, proving the gate really is saturated.
	if w := do(t, h, "POST", "/v1/pnr", `{"bench":"rotary_pcr"}`); w.Code != http.StatusTooManyRequests {
		t.Errorf("pnr under saturation: status = %d, want 429", w.Code)
	}
}

// upgradableWriter wraps the recorder with the optional interfaces real
// network ResponseWriters implement.
type upgradableWriter struct {
	*httptest.ResponseRecorder
	readFrom bool
}

func (u *upgradableWriter) ReadFrom(src io.Reader) (int64, error) {
	u.readFrom = true
	return io.Copy(u.ResponseRecorder.Body, src)
}

// TestStatusWriterPreservesUpgrades pins the middleware interface-upgrade
// fix: wrapping must not hide http.Flusher (streaming) or io.ReaderFrom
// (sendfile) from handlers, whether asserted directly or discovered via
// http.NewResponseController.
func TestStatusWriterPreservesUpgrades(t *testing.T) {
	s := New(Config{Workers: 1})
	u := &upgradableWriter{ResponseRecorder: httptest.NewRecorder()}
	h := s.wrap("probe", func(w http.ResponseWriter, r *http.Request) error {
		if _, ok := w.(http.Flusher); !ok {
			t.Error("wrap hides http.Flusher")
		}
		if err := http.NewResponseController(w).Flush(); err != nil {
			t.Errorf("ResponseController.Flush: %v", err)
		}
		rf, ok := w.(io.ReaderFrom)
		if !ok {
			t.Fatal("wrap hides io.ReaderFrom")
		}
		if _, err := rf.ReadFrom(strings.NewReader("streamed")); err != nil {
			t.Errorf("ReadFrom: %v", err)
		}
		return nil
	})
	h.ServeHTTP(u, httptest.NewRequest("GET", "/probe", nil))
	if !u.Flushed {
		t.Error("flush did not reach the underlying writer")
	}
	if !u.readFrom {
		t.Error("ReadFrom did not reach the underlying writer")
	}
	if got := u.Body.String(); got != "streamed" {
		t.Errorf("body = %q, want streamed", got)
	}
	if u.Code != http.StatusOK {
		t.Errorf("status = %d, want 200", u.Code)
	}
}

// TestWrapExemptions pins the middleware admission fixes: body-less GET
// endpoints skip the body limiter, health endpoints skip the pipeline
// deadline, and regular endpoints keep both.
func TestWrapExemptions(t *testing.T) {
	s := New(Config{Workers: 1, MaxBodyBytes: 8, RequestTimeout: time.Hour})
	probe := func(o wrapOpts) (hasDeadline bool, readErr error) {
		h := s.wrapWith("probe", func(w http.ResponseWriter, r *http.Request) error {
			_, hasDeadline = r.Context().Deadline()
			_, readErr = io.ReadAll(r.Body)
			return nil
		}, o)
		h.ServeHTTP(httptest.NewRecorder(),
			httptest.NewRequest("POST", "/probe", strings.NewReader(strings.Repeat("x", 64))))
		return
	}
	if hasDeadline, readErr := probe(wrapOpts{}); !hasDeadline {
		t.Error("default wrap lost the pipeline deadline")
	} else if readErr == nil {
		t.Error("default wrap did not enforce the body limit")
	}
	if hasDeadline, _ := probe(wrapOpts{noTimeout: true}); hasDeadline {
		t.Error("noTimeout wrap still sets a pipeline deadline")
	}
	if _, readErr := probe(wrapOpts{noBodyLimit: true}); readErr != nil {
		t.Errorf("noBodyLimit wrap still limits bodies: %v", readErr)
	}
}

var bootIDPattern = regexp.MustCompile(`^req-[0-9a-f]{8}-\d{8,}$`)

// TestRequestIDsCarryBootNonce pins the restart-collision fix: IDs embed
// a per-boot nonce, so two server instances (two boots) mint disjoint ID
// spaces even though both sequences restart at 1.
func TestRequestIDsCarryBootNonce(t *testing.T) {
	a := New(Config{Workers: 1})
	b := New(Config{Workers: 1})
	idOf := func(s *Server) string {
		w := do(t, s.Handler(), "GET", "/healthz", "")
		return w.Header().Get("X-Request-Id")
	}
	idA, idB := idOf(a), idOf(b)
	for _, id := range []string{idA, idB} {
		if !bootIDPattern.MatchString(id) {
			t.Errorf("X-Request-Id = %q, want req-<8 hex>-<seq>", id)
		}
	}
	if idA == idB {
		t.Errorf("first IDs of two boots collide: %q", idA)
	}
}
