// Package job is the durable async job layer over the service's
// deterministic exec cores. A job is just (op, canonical envelope,
// resolved seed) — exactly the content address of the result cache — so a
// job's result is location- and time-independent: two identical jobs
// coalesce onto one computation, a job whose key is already cached
// completes instantly, and a journaled job replays byte-identically on
// any boot with the same base seed.
//
// The package knows nothing about HTTP. The serving layer supplies the
// executor (its gate + singleflight cache path), an error describer (its
// status/code mapping), and optional hooks (its metrics); the store owns
// lifecycle, the per-job event stream consumed by SSE handlers, and the
// append-only journal that makes submissions survive restarts.
package job

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusCompleted Status = "completed"
	StatusFailed    Status = "failed"
	StatusCanceled  Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusCompleted || s == StatusFailed || s == StatusCanceled
}

// ErrNotFound reports an unknown (or evicted) job ID.
var ErrNotFound = errors.New("job: not found")

// ErrTooManyJobs reports that the store is at its retention cap with no
// terminal job left to evict — every retained job is still queued or
// running. Callers should surface it as overload (429).
var ErrTooManyJobs = errors.New("job: too many active jobs")

// ErrJournal reports that a submission's journal record could not be
// written, so the job was not accepted: acknowledging it would promise a
// durability replay cannot keep. Callers should surface it as 503.
var ErrJournal = errors.New("job: journal unavailable")

// ErrNotFinished reports a result request against a job that has not
// completed.
var ErrNotFinished = errors.New("job: not finished")

// Exec runs one operation to a materialized result entry: the serving
// layer's cached execution path (bounded gate, singleflight, LRU). The
// string return is the cache outcome ("hit", "miss", "coalesced", or ""
// with caching off).
type Exec func(ctx context.Context, op string, envelope json.RawMessage) (cache.Entry, string, error)

// Hooks observe lifecycle transitions for metrics; any field may be nil.
type Hooks struct {
	Submitted func()
	Started   func()
	Finished  func(status Status, d time.Duration)
	// AppendFailed observes a start, finish or cancel record the journal
	// could not write; record names its kind ("start", "finish",
	// "cancel"). The job itself proceeds (see journalAppend).
	AppendFailed func(record string)
}

// Config assembles a store.
type Config struct {
	// Exec is required: the execution path jobs run through.
	Exec Exec
	// Workers bounds concurrently executing jobs; <1 means NumCPU. Queued
	// jobs wait (unboundedly in time, bounded in count by MaxJobs) for an
	// executor slot.
	Workers int
	// DescribeError maps an execution error to the service's stable
	// (http status, code) vocabulary for journaling and status responses;
	// nil records 500/"internal".
	DescribeError func(err error) (httpStatus int, code string)
	// Journal, when non-nil, persists transitions and is replayed by
	// NewStore: completed jobs come back served from their journaled
	// bytes, interrupted ones are re-enqueued in journal order.
	Journal *Journal
	// SeedCache, when non-nil, receives each replayed completed result so
	// the serving layer can re-seed its content-addressed cache.
	SeedCache func(key string, ent cache.Entry)
	// ResultPath renders a job's result location for terminal events and
	// status documents (e.g. "/v1/jobs/<id>/result"); nil omits it.
	ResultPath func(id string) string
	// Timeout bounds one job's execution (not its queue wait); 0 means
	// no limit.
	Timeout time.Duration
	// MaxJobs caps retained jobs; once reached, the oldest terminal jobs
	// are evicted to admit new submissions, and submission fails with
	// ErrTooManyJobs when every retained job is still active. <1 selects
	// 1024.
	MaxJobs int
	// Hooks observe transitions for metrics.
	Hooks Hooks
}

func (c Config) workers() int {
	if c.Workers < 1 {
		return runtime.NumCPU()
	}
	return c.Workers
}

func (c Config) maxJobs() int {
	if c.MaxJobs < 1 {
		return 1024
	}
	return c.MaxJobs
}

// Job is one submission's full state. All mutable fields are guarded by
// mu; readers go through snapshots.
type Job struct {
	id       string
	op       string
	key      string
	envelope json.RawMessage
	trace    string
	hub      *hub

	cancelCh   chan struct{}
	cancelOnce sync.Once

	mu              sync.Mutex
	status          Status
	finishing       bool
	created         time.Time
	started         time.Time
	finished        time.Time
	entry           cache.Entry
	outcome         string
	errMsg, errCode string
	errStatus       int
	cancelFn        context.CancelFunc
	cancelRequested bool
}

func newJob(id, op, key string, envelope json.RawMessage, trace string) *Job {
	return &Job{
		id:       id,
		op:       op,
		key:      key,
		envelope: envelope,
		trace:    trace,
		hub:      newHub(),
		cancelCh: make(chan struct{}),
		status:   StatusQueued,
		created:  time.Now(),
	}
}

// Snapshot is an immutable view of a job for rendering. Entry is only
// populated for completed jobs; Err* only for failed ones.
type Snapshot struct {
	ID, Op, Key                string
	Status                     Status
	Outcome                    string
	Created, Started, Finished time.Time
	ContentType                string
	Size                       int
	ErrMsg, ErrCode            string
	ErrStatus                  int
	Events                     int
}

func (j *Job) snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		ID: j.id, Op: j.op, Key: j.key,
		Status:  j.status,
		Outcome: j.outcome,
		Created: j.created, Started: j.started, Finished: j.finished,
		ContentType: j.entry.ContentType,
		Size:        len(j.entry.Body),
		ErrMsg:      j.errMsg, ErrCode: j.errCode, ErrStatus: j.errStatus,
		Events: j.hub.count(),
	}
}

// Store owns the job table, the executor slots, and the journal.
type Store struct {
	cfg   Config
	base  context.Context
	stop  context.CancelFunc
	sem   chan struct{}
	wg    sync.WaitGroup
	nonce string
	seq   atomic.Uint64

	running atomic.Int64

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string
	// pending counts retention slots held by submissions whose journal
	// record is still being written; they count against the cap.
	pending int
}

// NewStore builds a store and, when a journal is configured, replays it:
// terminal jobs are restored (completed ones re-seed the cache and serve
// their journaled bytes), and jobs interrupted mid-flight are re-enqueued
// in journal order. Exec must be non-nil.
func NewStore(cfg Config) *Store {
	if cfg.Exec == nil {
		panic("job: Config.Exec is required")
	}
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("job: reading boot nonce: %v", err))
	}
	base, stop := context.WithCancel(context.Background())
	s := &Store{
		cfg:   cfg,
		base:  base,
		stop:  stop,
		sem:   make(chan struct{}, cfg.workers()),
		nonce: hex.EncodeToString(b[:]),
		jobs:  make(map[string]*Job),
	}
	if cfg.Journal != nil {
		s.replay(cfg.Journal.records())
	}
	return s
}

// nextID mints a process-unique job identifier: a per-boot nonce keeps
// IDs from different boots (and journal replays) disjoint, the sequence
// keeps them orderable within one boot.
func (s *Store) nextID() string {
	return fmt.Sprintf("job-%s-%06d", s.nonce, s.seq.Add(1))
}

// Submit durably records a new job and enqueues it for execution. The
// journal line is written before Submit returns, so an acknowledged
// submission survives an immediate crash. When that write fails the job
// is dropped unseen and the error wraps ErrJournal.
func (s *Store) Submit(op string, envelope json.RawMessage, key, trace string) (Snapshot, error) {
	j := newJob(s.nextID(), op, key, envelope, trace)
	s.mu.Lock()
	for len(s.order)+s.pending >= s.cfg.maxJobs() {
		if !s.evictOldestTerminalLocked() {
			s.mu.Unlock()
			return Snapshot{}, ErrTooManyJobs
		}
	}
	s.pending++
	s.mu.Unlock()
	var err error
	if s.cfg.Journal != nil {
		err = s.cfg.Journal.Append(record{E: recSubmit, ID: j.id, Op: op, Key: key, Envelope: envelope, Trace: trace})
	}
	s.mu.Lock()
	s.pending--
	if err == nil {
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	s.mu.Unlock()
	if err != nil {
		return Snapshot{}, fmt.Errorf("%w: %w", ErrJournal, err)
	}
	if s.cfg.Hooks.Submitted != nil {
		s.cfg.Hooks.Submitted()
	}
	j.hub.publish(EventStatus, statusPayload{StatusQueued}, false)
	s.enqueue(j)
	return j.snapshot(), nil
}

// evictOldestTerminalLocked removes the oldest terminal job; caller holds
// s.mu. Returns false when every retained job is still active.
func (s *Store) evictOldestTerminalLocked() bool {
	for i, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		terminal := j.status.Terminal()
		j.mu.Unlock()
		if terminal {
			delete(s.jobs, id)
			s.order = append(s.order[:i], s.order[i+1:]...)
			return true
		}
	}
	return false
}

// enqueue hands the job to a runner goroutine. The goroutine parks until
// an executor slot frees up, cancellation strikes, or the store closes.
func (s *Store) enqueue(j *Job) {
	s.wg.Add(1)
	go s.run(j)
}

func (s *Store) run(j *Job) {
	defer s.wg.Done()
	select {
	case s.sem <- struct{}{}:
	case <-j.cancelCh:
		s.finish(j, cache.Entry{}, "", context.Canceled)
		return
	case <-s.base.Done():
		s.finish(j, cache.Entry{}, "", context.Canceled)
		return
	}
	defer func() { <-s.sem }()

	var ctx context.Context
	var cancel context.CancelFunc
	if s.cfg.Timeout > 0 {
		ctx, cancel = context.WithTimeout(s.base, s.cfg.Timeout)
	} else {
		ctx, cancel = context.WithCancel(s.base)
	}
	defer cancel()

	j.mu.Lock()
	if j.cancelRequested {
		j.mu.Unlock()
		s.finish(j, cache.Entry{}, "", context.Canceled)
		return
	}
	j.cancelFn = cancel
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()

	s.journalAppend(record{E: recStart, ID: j.id})
	s.running.Add(1)
	if s.cfg.Hooks.Started != nil {
		s.cfg.Hooks.Started()
	}
	j.hub.publish(EventStatus, statusPayload{StatusRunning}, false)

	ctx = obs.WithTraceparent(ctx, j.trace)
	ent, outcome, err := s.cfg.Exec(WithProgress(ctx, newProgress(j.hub)), j.op, j.envelope)
	s.running.Add(-1)
	s.finish(j, ent, outcome, err)
}

// statusPayload is the JSON body of a status event.
type statusPayload struct {
	Status Status `json:"status"`
}

// donePayload is the JSON body of the terminal event.
type donePayload struct {
	Status      Status `json:"status"`
	Cache       string `json:"cache,omitempty"`
	Result      string `json:"result,omitempty"`
	ContentType string `json:"content_type,omitempty"`
	Bytes       int    `json:"bytes,omitempty"`
	Error       string `json:"error,omitempty"`
	Code        string `json:"code,omitempty"`
	HTTPStatus  int    `json:"http_status,omitempty"`
}

// finish drives a job to its terminal state exactly once: classify the
// outcome, journal the transition, then publish the terminal status and
// events, and fire the metrics hook. The journal append happens before
// the status flips terminal — write-ahead order — so a client that
// observes "completed" is guaranteed the finish record is already
// durable and a crash right after cannot re-run an acknowledged job.
// Duplicate calls (a cancel racing the runner) no-op on the finishing
// latch.
func (s *Store) finish(j *Job, ent cache.Entry, outcome string, err error) {
	j.mu.Lock()
	if j.status.Terminal() || j.finishing {
		j.mu.Unlock()
		return
	}
	j.finishing = true
	now := time.Now()
	j.finished = now
	var dur time.Duration
	if !j.started.IsZero() {
		dur = now.Sub(j.started)
	}
	var st Status
	var httpStatus int
	var code string
	switch {
	case err == nil:
		st = StatusCompleted
		j.entry = ent
		j.outcome = outcome
	case j.cancelRequested || errors.Is(err, context.Canceled):
		st = StatusCanceled
	default:
		st = StatusFailed
		httpStatus, code = s.describe(err)
		j.errMsg, j.errCode, j.errStatus = err.Error(), code, httpStatus
	}
	j.mu.Unlock()

	// Durable first: the transition is journaled while the job still reads
	// as non-terminal, then the status flips and the events fan out.
	switch st {
	case StatusCompleted:
		s.journalAppend(record{E: recFinish, ID: j.id, Status: st, Cache: outcome,
			ContentType: ent.ContentType, Body: ent.Body})
	case StatusCanceled:
		s.journalAppend(record{E: recCancel, ID: j.id})
	case StatusFailed:
		s.journalAppend(record{E: recFinish, ID: j.id, Status: st,
			Error: err.Error(), Code: code, HTTPStatus: httpStatus})
	}
	j.mu.Lock()
	j.status = st
	j.mu.Unlock()

	switch st {
	case StatusCompleted:
		j.hub.publish(EventStatus, statusPayload{st}, false)
		j.hub.publish(EventDone, donePayload{Status: st, Cache: outcome,
			Result: s.resultPath(j.id), ContentType: ent.ContentType, Bytes: len(ent.Body)}, true)
	case StatusCanceled:
		j.hub.publish(EventStatus, statusPayload{st}, false)
		j.hub.publish(EventDone, donePayload{Status: st}, true)
	case StatusFailed:
		j.hub.publish(EventStatus, statusPayload{st}, false)
		j.hub.publish(EventDone, donePayload{Status: st,
			Error: err.Error(), Code: code, HTTPStatus: httpStatus}, true)
	}
	if s.cfg.Hooks.Finished != nil {
		s.cfg.Hooks.Finished(st, dur)
	}
}

func (s *Store) describe(err error) (int, string) {
	if s.cfg.DescribeError != nil {
		return s.cfg.DescribeError(err)
	}
	return 500, "internal"
}

func (s *Store) resultPath(id string) string {
	if s.cfg.ResultPath == nil {
		return ""
	}
	return s.cfg.ResultPath(id)
}

// journalAppend persists one transition after the submit record. Its
// failures (disk full, closed file during shutdown) degrade durability,
// not availability: the in-memory job proceeds, replay re-runs a job
// whose finish record is missing, and the failure is reported only to
// Hooks.AppendFailed.
func (s *Store) journalAppend(r record) {
	if s.cfg.Journal == nil {
		return
	}
	if err := s.cfg.Journal.Append(r); err != nil && s.cfg.Hooks.AppendFailed != nil {
		s.cfg.Hooks.AppendFailed(r.E)
	}
}

// lookup returns the live job or ErrNotFound.
func (s *Store) lookup(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j, nil
}

// Get returns a job's current snapshot.
func (s *Store) Get(id string) (Snapshot, error) {
	j, err := s.lookup(id)
	if err != nil {
		return Snapshot{}, err
	}
	return j.snapshot(), nil
}

// Result returns a completed job's materialized entry and cache outcome.
// It reports ErrNotFinished while the job is queued or running; for
// failed and canceled jobs the caller should render the snapshot's error.
func (s *Store) Result(id string) (cache.Entry, string, error) {
	j, err := s.lookup(id)
	if err != nil {
		return cache.Entry{}, "", err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusCompleted {
		return cache.Entry{}, "", fmt.Errorf("%w: job is %s", ErrNotFinished, j.status)
	}
	return j.entry, j.outcome, nil
}

// Cancel requests cancellation: a queued job finishes canceled without
// running, a running job's context is canceled (aborting the solvers at
// their batch boundaries and releasing the gate slot), and a terminal job
// is left untouched. Cancel is idempotent; it returns the post-request
// snapshot.
func (s *Store) Cancel(id string) (Snapshot, error) {
	j, err := s.lookup(id)
	if err != nil {
		return Snapshot{}, err
	}
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return j.snapshot(), nil
	}
	j.cancelRequested = true
	fn := j.cancelFn
	j.mu.Unlock()
	j.cancelOnce.Do(func() { close(j.cancelCh) })
	if fn != nil {
		fn()
	}
	return j.snapshot(), nil
}

// List returns snapshots of every retained job in submission order.
func (s *Store) List() []Snapshot {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Snapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	return out
}

// Events returns a job's events from index from (0-based), whether the
// stream is terminal, and a channel closed on the next publish.
func (s *Store) Events(id string, from int) (evs []Event, terminal bool, changed <-chan struct{}, err error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, false, nil, err
	}
	evs, terminal, changed = j.hub.since(from)
	return evs, terminal, changed, nil
}

// Running reports how many jobs are executing right now.
func (s *Store) Running() int { return int(s.running.Load()) }

// Close cancels every in-flight job and waits for the runners to drain.
// The journal (owned by the caller) is not closed.
func (s *Store) Close() {
	s.stop()
	s.wg.Wait()
}

// replay rebuilds the job table from journal records and re-enqueues the
// jobs the previous process never finished, in journal order — the
// deterministic contract makes the rerun indistinguishable from the run
// that was interrupted.
func (s *Store) replay(recs []record) {
	byID := make(map[string]*Job)
	var order []string
	for _, r := range recs {
		switch r.E {
		case recSubmit:
			if r.Op == "" {
				continue
			}
			if _, ok := byID[r.ID]; ok {
				continue
			}
			j := newJob(r.ID, r.Op, r.Key, r.Envelope, r.Trace)
			byID[r.ID] = j
			order = append(order, r.ID)
		case recFinish:
			j := byID[r.ID]
			if j == nil || j.status.Terminal() {
				continue
			}
			j.finished = time.Now()
			if r.Status == StatusCompleted {
				j.status = StatusCompleted
				j.entry = cache.Entry{ContentType: r.ContentType, Body: r.Body}
				// A journal replay is a durable cache hit: the bytes were
				// computed once and are now served from storage.
				j.outcome = "hit"
				if s.cfg.SeedCache != nil && j.key != "" {
					s.cfg.SeedCache(j.key, j.entry)
				}
			} else {
				j.status = StatusFailed
				j.errMsg, j.errCode, j.errStatus = r.Error, r.Code, r.HTTPStatus
			}
		case recCancel:
			j := byID[r.ID]
			if j == nil || j.status.Terminal() {
				continue
			}
			j.finished = time.Now()
			j.status = StatusCanceled
		}
	}
	for _, id := range order {
		j := byID[id]
		s.jobs[id] = j
		s.order = append(s.order, id)
		if j.status.Terminal() {
			// Rebuild a minimal event history so late subscribers to a
			// replayed job still get a well-formed stream ending in done.
			j.hub.publish(EventStatus, statusPayload{j.status}, false)
			switch j.status {
			case StatusCompleted:
				j.hub.publish(EventDone, donePayload{Status: j.status, Cache: j.outcome,
					Result: s.resultPath(j.id), ContentType: j.entry.ContentType, Bytes: len(j.entry.Body)}, true)
			case StatusFailed:
				j.hub.publish(EventDone, donePayload{Status: j.status,
					Error: j.errMsg, Code: j.errCode, HTTPStatus: j.errStatus}, true)
			default:
				j.hub.publish(EventDone, donePayload{Status: j.status}, true)
			}
			continue
		}
		j.hub.publish(EventStatus, statusPayload{StatusQueued}, false)
		if s.cfg.Hooks.Submitted != nil {
			s.cfg.Hooks.Submitted()
		}
		s.enqueue(j)
	}
}
