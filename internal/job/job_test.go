package job

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
)

// instantExec returns op's name as the body — enough to tell results
// apart while keeping tests fast.
func instantExec(ctx context.Context, op string, envelope json.RawMessage) (cache.Entry, string, error) {
	return cache.Entry{ContentType: "text/plain", Body: []byte("result:" + op)}, "miss", nil
}

// waitTerminal polls until the job leaves the active states.
func waitTerminal(t *testing.T, s *Store, id string) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := s.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if snap.Status.Terminal() {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %s", id, snap.Status)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	s := NewStore(Config{Exec: instantExec, Workers: 2})
	defer s.Close()
	snap, err := s.Submit("stats", json.RawMessage(`{"bench":"x"}`), "key-1", "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if snap.Status != StatusQueued && snap.Status != StatusRunning && snap.Status != StatusCompleted {
		t.Errorf("fresh submit status = %s", snap.Status)
	}
	done := waitTerminal(t, s, snap.ID)
	if done.Status != StatusCompleted {
		t.Fatalf("status = %s, want completed", done.Status)
	}
	ent, outcome, err := s.Result(snap.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if string(ent.Body) != "result:stats" || outcome != "miss" {
		t.Errorf("result = %q / %q", ent.Body, outcome)
	}
	// The event stream is well-formed: ends with exactly one done event.
	evs, terminal, _, err := s.Events(snap.ID, 0)
	if err != nil || !terminal {
		t.Fatalf("Events: err=%v terminal=%v", err, terminal)
	}
	if n := len(evs); n == 0 || evs[n-1].Type != EventDone {
		t.Errorf("stream does not end in done: %+v", evs)
	}
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d, want dense from 1", i, ev.Seq)
		}
	}
}

func TestResultBeforeCompletionConflicts(t *testing.T) {
	block := make(chan struct{})
	s := NewStore(Config{Workers: 1, Exec: func(ctx context.Context, op string, env json.RawMessage) (cache.Entry, string, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return cache.Entry{}, "", ctx.Err()
	}})
	defer s.Close()
	defer close(block)
	snap, err := s.Submit("pnr", json.RawMessage(`{}`), "k", "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, _, err := s.Result(snap.ID); !errors.Is(err, ErrNotFinished) {
		t.Errorf("Result on active job: err = %v, want ErrNotFinished", err)
	}
	if _, _, err := s.Result("job-none-000000"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Result on unknown job: err = %v, want ErrNotFound", err)
	}
}

func TestCancelRunningJobReleasesSlot(t *testing.T) {
	started := make(chan struct{}, 1)
	s := NewStore(Config{Workers: 1, Exec: func(ctx context.Context, op string, env json.RawMessage) (cache.Entry, string, error) {
		started <- struct{}{}
		<-ctx.Done()
		return cache.Entry{}, "", ctx.Err()
	}})
	defer s.Close()
	snap, err := s.Submit("pnr", json.RawMessage(`{}`), "k", "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	if _, err := s.Cancel(snap.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if got := waitTerminal(t, s, snap.ID); got.Status != StatusCanceled {
		t.Fatalf("status = %s, want canceled", got.Status)
	}
	// The worker slot is free again: a fresh job completes.
	next, err := s.Submit("stats", json.RawMessage(`{}`), "k2", "")
	if err != nil {
		t.Fatalf("Submit after cancel: %v", err)
	}
	go func() {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
		}
	}()
	_ = next // the exec blocks on ctx; cancel it too so Close drains fast
	if _, err := s.Cancel(next.ID); err != nil {
		t.Fatalf("Cancel second: %v", err)
	}
	waitTerminal(t, s, next.ID)
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	var ran atomic.Int64
	block := make(chan struct{})
	s := NewStore(Config{Workers: 1, Exec: func(ctx context.Context, op string, env json.RawMessage) (cache.Entry, string, error) {
		ran.Add(1)
		select {
		case <-block:
		case <-ctx.Done():
		}
		return cache.Entry{}, "", ctx.Err()
	}})
	defer s.Close()
	defer close(block)
	first, _ := s.Submit("pnr", json.RawMessage(`{}`), "k1", "")
	queued, _ := s.Submit("pnr", json.RawMessage(`{}`), "k2", "")
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	if got := waitTerminal(t, s, queued.ID); got.Status != StatusCanceled {
		t.Fatalf("queued job status = %s, want canceled", got.Status)
	}
	if _, err := s.Cancel(first.ID); err != nil {
		t.Fatalf("Cancel first: %v", err)
	}
	waitTerminal(t, s, first.ID)
	if n := ran.Load(); n != 1 {
		t.Errorf("exec ran %d times, want 1 (canceled queued job must never run)", n)
	}
}

func TestRetentionEvictsTerminalOnly(t *testing.T) {
	s := NewStore(Config{Exec: instantExec, Workers: 1, MaxJobs: 2})
	defer s.Close()
	a, _ := s.Submit("stats", json.RawMessage(`{}`), "ka", "")
	waitTerminal(t, s, a.ID)
	b, _ := s.Submit("stats", json.RawMessage(`{}`), "kb", "")
	waitTerminal(t, s, b.ID)
	c, err := s.Submit("stats", json.RawMessage(`{}`), "kc", "")
	if err != nil {
		t.Fatalf("Submit past cap: %v", err)
	}
	waitTerminal(t, s, c.ID)
	if _, err := s.Get(a.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("oldest terminal job survived eviction: err = %v", err)
	}
	if len(s.List()) != 2 {
		t.Errorf("retained %d jobs, want 2", len(s.List()))
	}
}

func TestTooManyActiveJobs(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s := NewStore(Config{Workers: 1, MaxJobs: 2, Exec: func(ctx context.Context, op string, env json.RawMessage) (cache.Entry, string, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return cache.Entry{ContentType: "t", Body: []byte("x")}, "miss", nil
	}})
	defer s.Close()
	if _, err := s.Submit("pnr", json.RawMessage(`{}`), "k1", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("pnr", json.RawMessage(`{}`), "k2", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("pnr", json.RawMessage(`{}`), "k3", ""); !errors.Is(err, ErrTooManyJobs) {
		t.Errorf("Submit with all slots active: err = %v, want ErrTooManyJobs", err)
	}
}

// TestSubmitJournalFailure pins that a submission whose journal record
// fails is refused whole: no retained job, no Submitted hook, no
// execution, and its reserved retention slot is returned.
func TestSubmitJournalFailure(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	j.Close() // appends after Close fail
	var submitted, ran atomic.Int64
	s := NewStore(Config{Workers: 1, MaxJobs: 1, Journal: j,
		Hooks: Hooks{Submitted: func() { submitted.Add(1) }},
		Exec: func(ctx context.Context, op string, env json.RawMessage) (cache.Entry, string, error) {
			ran.Add(1)
			return cache.Entry{ContentType: "t", Body: []byte("x")}, "miss", nil
		}})
	defer s.Close()
	if _, err := s.Submit("stats", json.RawMessage(`{}`), "k", ""); !errors.Is(err, ErrJournal) {
		t.Fatalf("Submit with a closed journal: err = %v, want ErrJournal", err)
	}
	if n := len(s.List()); n != 0 {
		t.Errorf("retained %d jobs after a failed submit", n)
	}
	if submitted.Load() != 0 || ran.Load() != 0 {
		t.Errorf("failed submit reached hooks (%d) or exec (%d)", submitted.Load(), ran.Load())
	}
	s.mu.Lock()
	pending := s.pending
	s.mu.Unlock()
	if pending != 0 {
		t.Errorf("pending = %d after a failed submit, want 0", pending)
	}
}

// TestJournalAppendFailureReported: a finish record the journal cannot
// write (the journal closed while the job ran) still completes the job,
// and reaches Hooks.AppendFailed exactly once, naming the record.
func TestJournalAppendFailureReported(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	running, release := make(chan struct{}), make(chan struct{})
	var failed []string
	s := NewStore(Config{Workers: 1, Journal: j,
		Hooks: Hooks{AppendFailed: func(record string) { failed = append(failed, record) }},
		Exec: func(ctx context.Context, op string, env json.RawMessage) (cache.Entry, string, error) {
			close(running)
			<-release
			return cache.Entry{ContentType: "t", Body: []byte("x")}, "miss", nil
		}})
	defer s.Close()
	snap, err := s.Submit("stats", json.RawMessage(`{}`), "k", "")
	if err != nil {
		t.Fatal(err)
	}
	<-running // the start record is written before Exec runs
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if got := waitTerminal(t, s, snap.ID); got.Status != StatusCompleted {
		t.Fatalf("job = %s, want completed despite the journal", got.Status)
	}
	if len(failed) != 1 || failed[0] != recFinish {
		t.Errorf("AppendFailed records = %v, want [%s]", failed, recFinish)
	}
}

func TestJournalReplayCompletedAndInterrupted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var seeded []string
	// First boot: one job completes, one is submitted but never finishes
	// (simulated by appending only its submit record).
	s := NewStore(Config{Exec: instantExec, Workers: 1, Journal: j})
	done, err := s.Submit("stats", json.RawMessage(`{"bench":"a"}`), "key-done", "")
	if err != nil {
		t.Fatal(err)
	}
	first := waitTerminal(t, s, done.ID)
	if first.Status != StatusCompleted {
		t.Fatalf("first boot job = %s", first.Status)
	}
	firstEnt, _, _ := s.Result(done.ID)
	s.Close()
	if err := j.Append(record{E: recSubmit, ID: "job-dead-000001", Op: "convert",
		Key: "key-interrupted", Envelope: json.RawMessage(`{"bench":"b"}`)}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Second boot replays: the completed job serves its journaled bytes as
	// a durable cache hit, the interrupted one re-runs deterministically.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	s2 := NewStore(Config{Exec: instantExec, Workers: 1, Journal: j2,
		SeedCache: func(key string, ent cache.Entry) { seeded = append(seeded, key) }})
	defer s2.Close()

	snap, err := s2.Get(done.ID)
	if err != nil {
		t.Fatalf("replayed job lookup: %v", err)
	}
	if snap.Status != StatusCompleted || snap.Outcome != "hit" {
		t.Errorf("replayed job = %s/%q, want completed/hit", snap.Status, snap.Outcome)
	}
	ent, outcome, err := s2.Result(done.ID)
	if err != nil {
		t.Fatalf("replayed Result: %v", err)
	}
	if string(ent.Body) != string(firstEnt.Body) {
		t.Errorf("replayed bytes differ: %q vs %q", ent.Body, firstEnt.Body)
	}
	if outcome != "hit" {
		t.Errorf("replayed outcome = %q, want hit", outcome)
	}
	if len(seeded) != 1 || seeded[0] != "key-done" {
		t.Errorf("SeedCache keys = %v, want [key-done]", seeded)
	}
	interrupted := waitTerminal(t, s2, "job-dead-000001")
	if interrupted.Status != StatusCompleted {
		t.Fatalf("interrupted job = %s, want completed after re-run", interrupted.Status)
	}
	if ent, _, _ := s2.Result("job-dead-000001"); string(ent.Body) != "result:convert" {
		t.Errorf("re-run body = %q", ent.Body)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(record{E: recSubmit, ID: "job-x-000001", Op: "stats",
		Envelope: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// A kill -9 mid-write leaves a truncated line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"e":"fin`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer j2.Close()
	if j2.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", j2.Dropped())
	}
	if len(j2.records()) != 1 {
		t.Fatalf("records = %d, want 1", len(j2.records()))
	}
	// The file still appends cleanly after the torn line.
	if err := j2.Append(record{E: recCancel, ID: "job-x-000001"}); err != nil {
		t.Fatalf("append after torn tail: %v", err)
	}
	data, _ := os.ReadFile(path)
	if !strings.HasSuffix(strings.TrimRight(string(data), "\n"), `"}`) {
		t.Errorf("appended record did not terminate cleanly: %q", data)
	}
}

func TestFailedJobRecordsDescribedError(t *testing.T) {
	boom := errors.New("solver exploded")
	s := NewStore(Config{
		Workers: 1,
		Exec: func(ctx context.Context, op string, env json.RawMessage) (cache.Entry, string, error) {
			return cache.Entry{}, "", boom
		},
		DescribeError: func(err error) (int, string) { return 422, "invalid-device" },
	})
	defer s.Close()
	snap, _ := s.Submit("pnr", json.RawMessage(`{}`), "k", "")
	got := waitTerminal(t, s, snap.ID)
	if got.Status != StatusFailed {
		t.Fatalf("status = %s, want failed", got.Status)
	}
	if got.ErrMsg != "solver exploded" || got.ErrCode != "invalid-device" || got.ErrStatus != 422 {
		t.Errorf("stored error = %q/%q/%d", got.ErrMsg, got.ErrCode, got.ErrStatus)
	}
	if _, _, err := s.Result(snap.ID); !errors.Is(err, ErrNotFinished) {
		t.Errorf("Result on failed job: err = %v, want ErrNotFinished", err)
	}
}

func TestHooksFire(t *testing.T) {
	var submitted, started, completed atomic.Int64
	s := NewStore(Config{Exec: instantExec, Workers: 1, Hooks: Hooks{
		Submitted: func() { submitted.Add(1) },
		Started:   func() { started.Add(1) },
		Finished: func(st Status, d time.Duration) {
			if st == StatusCompleted {
				completed.Add(1)
			}
		},
	}})
	defer s.Close()
	snap, _ := s.Submit("stats", json.RawMessage(`{}`), "k", "")
	waitTerminal(t, s, snap.ID)
	if submitted.Load() != 1 || started.Load() != 1 || completed.Load() != 1 {
		t.Errorf("hooks = submit %d start %d complete %d, want 1/1/1",
			submitted.Load(), started.Load(), completed.Load())
	}
}

// TestJournalReportsMidFileCorruptionWithLineNumbers: dropped lines are
// not only counted but located, so an operator can distinguish the
// expected torn tail from corruption that silently narrows a handoff
// replay.
func TestJournalReportsMidFileCorruptionWithLineNumbers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	good1 := `{"e":"submit","id":"job-x-000001","op":"stats","envelope":{}}`
	corrupt := `{"e":"sub...CORRUPT`
	missing := `{"time":"2026-01-01T00:00:00Z"}`
	good2 := `{"e":"cancel","id":"job-x-000001"}`
	content := good1 + "\n" + corrupt + "\n" + good2 + "\n" + missing + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", j.Dropped())
	}
	dl := j.DroppedLines()
	if dl[0].Line != 2 || dl[1].Line != 4 {
		t.Errorf("dropped line numbers = %d, %d; want 2, 4", dl[0].Line, dl[1].Line)
	}
	if dl[0].Reason == "" || dl[1].Reason == "" {
		t.Error("dropped lines carry no reason")
	}
	if len(j.records()) != 2 {
		t.Errorf("replayable records = %d, want 2 (good lines on both sides of the corruption)", len(j.records()))
	}
}
