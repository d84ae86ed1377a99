package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// client sends workload requests over at most conns keep-alive
// connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true, // gzip is requested and decoded explicitly
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// conn is one load worker's reusable state.
type conn struct {
	c    *client
	buf  bytes.Buffer
	zbuf bytes.Buffer
	zr   *gzip.Reader
}

// result is one request's outcome. body aliases the worker's buffer and
// is valid until its next request.
type result struct {
	err  error
	body []byte
	wire int  // response body bytes on the wire
	gzip bool // the response arrived gzip-encoded
}

// do sends one request (for a job: submit, follow its event stream to
// the terminal event, fetch the result) and returns the identity bytes.
func (w *conn) do(ctx context.Context, q *Request) result {
	if q.Job {
		return w.doJob(ctx, q)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.c.base+q.Path(), q.Body.Reader())
	if err != nil {
		return result{err: err}
	}
	req.ContentLength = int64(q.Body.Len())
	req.Header.Set("Content-Type", "application/json")
	if q.Gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	return w.read(req, http.StatusOK)
}

// read performs req and decodes the body into the worker's buffer.
func (w *conn) read(req *http.Request, want int) result {
	resp, err := w.c.hc.Do(req)
	if err != nil {
		return result{err: err}
	}
	defer resp.Body.Close()
	w.buf.Reset()
	if _, err := w.buf.ReadFrom(resp.Body); err != nil {
		return result{err: fmt.Errorf("reading %s: %w", req.URL.Path, err)}
	}
	r := result{wire: w.buf.Len(), body: w.buf.Bytes()}
	if resp.StatusCode != want {
		r.err = fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, truncate(r.body, 200))
		return r
	}
	if resp.Header.Get("Content-Encoding") == "gzip" {
		r.gzip = true
		if w.zr == nil {
			w.zr, err = gzip.NewReader(&w.buf)
		} else {
			err = w.zr.Reset(&w.buf)
		}
		if err == nil {
			w.zbuf.Reset()
			_, err = w.zbuf.ReadFrom(w.zr)
		}
		if err != nil {
			r.err = fmt.Errorf("gunzip %s: %w", req.URL.Path, err)
			return r
		}
		r.body = w.zbuf.Bytes()
	}
	return r
}

func (w *conn) doJob(ctx context.Context, q *Request) result {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.c.base+"/v1/jobs", q.Body.Reader())
	if err != nil {
		return result{err: err}
	}
	req.ContentLength = int64(q.Body.Len())
	r := w.read(req, http.StatusAccepted)
	if r.err != nil {
		return r
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(r.body, &sub); err != nil || sub.ID == "" {
		return result{err: fmt.Errorf("job submit answered %s", truncate(r.body, 200))}
	}
	if err := w.awaitJob(ctx, sub.ID); err != nil {
		return result{err: err}
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, w.c.base+"/v1/jobs/"+sub.ID+"/result", nil)
	if err != nil {
		return result{err: err}
	}
	return w.read(req, http.StatusOK)
}

// awaitJob follows the job's SSE stream to its terminal done event.
func (w *conn) awaitJob(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := w.c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("job %s events: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if done && strings.HasPrefix(line, "data: ") {
			if !strings.Contains(line, `"status":"completed"`) {
				return fmt.Errorf("job %s ended: %s", id, line)
			}
			// Drain the rest so the connection is reused.
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("job %s events: %w", id, err)
	}
	return fmt.Errorf("job %s events ended without a done event", id)
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}

// stored is the first response of a key that needs a device check.
type stored struct {
	chk  check
	body []byte
}

// ledger collects what the output checks need: the SHA-256 of every
// key's first response, the bodies that need device checks, and the
// failures.
type ledger struct {
	mu       sync.Mutex
	hashes   map[string][32]byte
	bodies   map[string]*stored
	failed   int
	failures []string
	sizes    sizeStats
}

// sizeStats is the response size accounting of the serve layer.
type sizeStats struct {
	wireBytes, identBytes, gzWire, gzIdent, responses int64
}

func newLedger() *ledger {
	return &ledger{hashes: map[string][32]byte{}, bodies: map[string]*stored{}}
}

// fail records a failed request; the first few messages are kept.
func (l *ledger) fail(msg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed++
	if len(l.failures) < 10 {
		l.failures = append(l.failures, msg)
	}
}

// record checks one response: it must succeed and answer the same bytes
// as every earlier response to its key. It reports whether the request
// counts as correct.
func (l *ledger) record(q *Request, r result) bool {
	if r.err != nil {
		l.fail(q.Key + ": " + r.err.Error())
		return false
	}
	sum := sha256.Sum256(r.body)
	l.mu.Lock()
	l.sizes.responses++
	l.sizes.wireBytes += int64(r.wire)
	l.sizes.identBytes += int64(len(r.body))
	if r.gzip {
		l.sizes.gzWire += int64(r.wire)
		l.sizes.gzIdent += int64(len(r.body))
	}
	prev, seen := l.hashes[q.Key]
	if !seen {
		l.hashes[q.Key] = sum
		if q.Check != checkNone {
			l.bodies[q.Key] = &stored{chk: q.Check, body: bytes.Clone(r.body)}
		}
	}
	l.mu.Unlock()
	if seen && prev != sum {
		l.fail(q.Key + ": response bytes differ from an earlier response to the same key")
		return false
	}
	return true
}

func (s *sizeStats) add(o sizeStats) {
	s.wireBytes += o.wireBytes
	s.identBytes += o.identBytes
	s.gzWire += o.gzWire
	s.gzIdent += o.gzIdent
	s.responses += o.responses
}

// takeSizes returns the size accounting so far and clears it, at a phase
// boundary.
func (l *ledger) takeSizes() sizeStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.sizes
	l.sizes = sizeStats{}
	return s
}

// sequential sends every request once over conns workers, in list order
// per worker; used for prefill and probes. It reports the first failure.
func sequential(ctx context.Context, c *client, conns int, reqs []Request, led *ledger) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &conn{c: c}
			for {
				k := int(next.Add(1) - 1)
				if k >= len(reqs) || ctx.Err() != nil {
					return
				}
				q := &reqs[k]
				if !led.record(q, w.do(ctx, q)) && errs[i] == nil {
					errs[i] = fmt.Errorf("%s failed", q.Key)
				}
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// satResult is the closed-loop phase outcome.
type satResult struct {
	attempted, ok int
	elapsed       time.Duration
	exhausted     bool
}

// closedLoop keeps conns requests in flight for dur, starting at list
// index start: each worker sends its next request as soon as the last
// returns. Once dur has passed the slice still completes the block in
// progress, so it always sends whole blocks of the workload's mix.
func closedLoop(ctx context.Context, c *client, conns int, reqs []Request, start int, cycle bool, block int, dur time.Duration, led *ledger) satResult {
	var next, ok, limit atomic.Int64
	limit.Store(math.MaxInt64)
	var exhausted atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(dur)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &conn{c: c}
			for ctx.Err() == nil {
				if time.Now().After(deadline) && limit.Load() == math.MaxInt64 {
					n := int64(start) + next.Load()
					limit.CompareAndSwap(math.MaxInt64, (n+int64(block)-1)/int64(block)*int64(block))
				}
				k := start + int(next.Add(1)-1)
				if int64(k) >= limit.Load() {
					return
				}
				if k >= len(reqs) {
					if !cycle {
						exhausted.Store(true)
						return
					}
					k %= len(reqs)
				}
				q := &reqs[k]
				if led.record(q, w.do(ctx, q)) {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	sent := min(int64(start)+next.Load(), limit.Load()) - int64(start)
	return satResult{attempted: int(sent), ok: int(ok.Load()), elapsed: time.Since(t0), exhausted: exhausted.Load()}
}

// fixedResult is the open-loop phase outcome, per request in list order.
type fixedResult struct {
	start    time.Time
	due      []time.Duration
	sent     []time.Duration // when the request was sent, from phase start
	latency  []time.Duration // completion minus due time
	lag      []time.Duration // how late the generator sent it, see openLoop
	ok       []bool
	attempts int
}

// openLoop sends request i at due[i] after the phase starts (Poisson
// arrivals at the workload's fixed rate), whatever the server's state.
// When every connection is busy a due request waits in the generator,
// and its latency, measured from the due time, includes that wait. The
// generator's own lag is how long after max(due time, worker free) a send
// actually started: timer and scheduler slack, not queueing.
func openLoop(ctx context.Context, c *client, conns int, reqs []Request, due []time.Duration, led *ledger) *fixedResult {
	n := len(reqs)
	fr := &fixedResult{
		due: due, sent: make([]time.Duration, n), latency: make([]time.Duration, n),
		lag: make([]time.Duration, n), ok: make([]bool, n),
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	fr.start = time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &conn{c: c}
			for ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				free := time.Since(fr.start)
				if wait := due[k] - free; wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(fr.start)
				fr.sent[k] = sent
				fr.lag[k] = sent - max(due[k], free)
				fr.ok[k] = led.record(&reqs[k], w.do(ctx, &reqs[k]))
				fr.latency[k] = time.Since(fr.start) - due[k]
			}
		}()
	}
	wg.Wait()
	fr.attempts = int(next.Load())
	if fr.attempts > n {
		fr.attempts = n
	}
	return fr
}

// backlog returns the number of requests due but not yet sent at t.
func (fr *fixedResult) backlog(t time.Duration) int {
	b := 0
	for i, d := range fr.due {
		if d <= t && fr.sent[i] > t {
			b++
		}
	}
	return b
}

// sampler scrapes /metrics once a second while a phase runs, keeping the
// maxima of the gauges the per-layer report needs.
type sampler struct {
	stop     chan struct{}
	done     chan struct{}
	queueMax float64
	heapMax  float64
}

func startSampler(base string) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	hc := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}
	go func() {
		defer close(s.done)
		defer hc.CloseIdleConnections()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			sc, err := fetchMetrics(hc, base)
			if err != nil {
				continue
			}
			s.queueMax = max(s.queueMax, sc.sum("parchmint_queue_waiting", nil))
			s.heapMax = max(s.heapMax, sc.sum("parchmint_go_heap_objects_bytes", nil))
		}
	}()
	return s
}

// finish stops the sampler and waits for it.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

func fetchMetrics(hc *http.Client, base string) (scrape, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseProm(string(b))
}

// rounds is how many alternating saturation and fixed-rate slices a run
// measures. The end-to-end figures are medians over the rounds, so a few
// seconds of interference from outside the run move one round, not the
// result. Eight rounds made jobs_journal's latency median less steady,
// not more (ten-seed IQR/median 0.28 against 0.18, runs alternated):
// its later rounds ran slower.
const rounds = 4

// round is one saturation slice and the fixed-rate slice after it.
type round struct {
	sat satResult
	fr  *fixedResult
	dur time.Duration // length of the fixed-rate slice
}

// window is a pair of /metrics scrapes around a slice.
type window struct{ before, after scrape }

// measured is everything the measured phases produce.
type measured struct {
	rounds            []round
	sat, fixed        []window
	sizes             sizeStats // responses of the fixed-rate slices
	journalBytes      int64     // journal growth over the fixed-rate slices
	queueMax, heapMax float64
}

// measure runs the rounds against the server at base, sampling its
// gauges once a second throughout.
func measure(ctx context.Context, w *Workload, plan Plan, base string, cl *client, conns int, journal string, led *ledger) (*measured, error) {
	smp := startSampler(base)
	m, err := measureRounds(ctx, w, plan, base, cl, conns, journal, led)
	smp.finish()
	if err != nil {
		return nil, err
	}
	m.queueMax, m.heapMax = smp.queueMax, smp.heapMax
	return m, nil
}

func measureRounds(ctx context.Context, w *Workload, plan Plan, base string, cl *client, conns int, journal string, led *ledger) (*measured, error) {
	mc := newClient(base, 1)
	defer mc.close()
	m := &measured{}
	next, n := 0, len(plan.Fixed)
	slice := plan.FixedDur / rounds
	for r := 0; r < rounds; r++ {
		s0, err := fetchMetrics(mc.hc, base)
		if err != nil {
			return nil, err
		}
		sat := closedLoop(ctx, cl, conns, plan.Sat, next, w.repeated, w.Block, plan.SatDur/rounds, led)
		if sat.exhausted {
			return nil, fmt.Errorf("saturation list of %d distinct requests exhausted; raise SatCap", len(plan.Sat))
		}
		next += sat.attempted
		s1, err := fetchMetrics(mc.hc, base)
		if err != nil {
			return nil, err
		}
		j0 := fileSize(journal)
		led.takeSizes()
		// The fixed-rate list splits into equal slices; each slice's due
		// times restart from its share of the phase.
		lo, hi := r*n/rounds, (r+1)*n/rounds
		offset := slice * time.Duration(r)
		due := make([]time.Duration, hi-lo)
		for i := range due {
			due[i] = max(0, plan.Due[lo+i]-offset)
		}
		fr := openLoop(ctx, cl, conns, plan.Fixed[lo:hi], due, led)
		s2, err := fetchMetrics(mc.hc, base)
		if err != nil {
			return nil, err
		}
		m.sizes.add(led.takeSizes())
		m.journalBytes += fileSize(journal) - j0
		m.sat = append(m.sat, window{s0, s1})
		m.fixed = append(m.fixed, window{s1, s2})
		m.rounds = append(m.rounds, round{sat: sat, fr: fr, dur: slice})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// fileSize is the size of path, 0 when it is unset or absent.
func fileSize(path string) int64 {
	if path == "" {
		return 0
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
