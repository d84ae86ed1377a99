package job

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// The journal is the job layer's durability story: an append-only JSONL
// file recording every lifecycle transition, fsynced per append so a
// kill -9 loses at most the line being written. On boot the store replays
// it — completed jobs come back with their result bytes (re-seeding the
// content-addressed cache), canceled and failed jobs come back terminal,
// and jobs caught mid-flight (submit or start without a terminal record)
// are re-enqueued in journal order. Determinism is what makes replay
// correct: a re-enqueued job is just (op, envelope, seed) and recomputes
// byte-identical results on any boot with the same base seed.
//
// Record kinds, one JSON object per line:
//
//	{"e":"submit","id":...,"op":...,"key":...,"envelope":{...},"time":...}
//	{"e":"start","id":...,"time":...}
//	{"e":"finish","id":...,"status":"completed","cache":...,
//	 "content_type":...,"body":"<base64>","time":...}
//	{"e":"finish","id":...,"status":"failed","error":...,"code":...,
//	 "http_status":...,"time":...}
//	{"e":"cancel","id":...,"time":...}
//
// The time field is informational (RFC3339Nano, wall clock); replay never
// depends on it.
const (
	recSubmit = "submit"
	recStart  = "start"
	recFinish = "finish"
	recCancel = "cancel"
)

// record is one journal line.
type record struct {
	E        string          `json:"e"`
	ID       string          `json:"id"`
	Time     string          `json:"time,omitempty"`
	Op       string          `json:"op,omitempty"`
	Key      string          `json:"key,omitempty"`
	Envelope json.RawMessage `json:"envelope,omitempty"`
	// Trace is the W3C traceparent of the submitting request, so a job
	// replayed on a later boot still correlates with the boot that
	// accepted it.
	Trace  string `json:"trace,omitempty"`
	Status Status `json:"status,omitempty"`
	Cache  string `json:"cache,omitempty"`
	// ContentType and Body carry a completed job's materialized result;
	// Body is base64 on the wire (encoding/json's []byte rendering).
	ContentType string `json:"content_type,omitempty"`
	Body        []byte `json:"body,omitempty"`
	// Error, Code, and HTTPStatus describe a failed job's outcome in the
	// service's stable error vocabulary.
	Error      string `json:"error,omitempty"`
	Code       string `json:"code,omitempty"`
	HTTPStatus int    `json:"http_status,omitempty"`
}

// Journal is an append-only JSONL transition log. Open it once per
// process; Append is safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// recs holds the records read at open time, for the store's replay.
	recs []record
	// dropped details the unparseable lines skipped during open — the
	// expected torn tail write after kill -9, but also mid-file corruption
	// that would silently narrow a handoff replay if left invisible.
	dropped []DroppedLine
}

// DroppedLine describes one journal line skipped as unparseable during
// open: its 1-based line number and why it was rejected.
type DroppedLine struct {
	// Line is the 1-based line number in the journal file.
	Line int
	// Reason says what was wrong: a JSON parse error, or a record missing
	// its required fields.
	Reason string
}

// OpenJournal opens (creating if needed) the journal at path, reads every
// replayable record, and leaves the file positioned for appends. A
// truncated or corrupt line — the expected artifact of an unclean
// shutdown mid-write — is skipped, not fatal; Dropped reports how many.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("job: opening journal: %w", err)
	}
	j := &Journal{f: f, path: path}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for lineno := 1; sc.Scan(); lineno++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			j.dropped = append(j.dropped, DroppedLine{Line: lineno, Reason: err.Error()})
			continue
		}
		if r.E == "" || r.ID == "" {
			j.dropped = append(j.dropped, DroppedLine{Line: lineno, Reason: "missing e or id field"})
			continue
		}
		j.recs = append(j.recs, r)
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("job: reading journal: %w", err)
	}
	return j, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Dropped reports how many unparseable lines open skipped.
func (j *Journal) Dropped() int { return len(j.dropped) }

// DroppedLines details each skipped line (number and reason), so callers
// can distinguish the expected torn tail from mid-file corruption. The
// slice is owned by the journal.
func (j *Journal) DroppedLines() []DroppedLine { return j.dropped }

// records hands the store the replay set; the slice is owned by the
// journal and read once during store construction.
func (j *Journal) records() []record { return j.recs }

// Append writes one record and syncs it to stable storage. The write is
// a single buffered line, so concurrent appends never interleave bytes.
func (j *Journal) Append(r record) error {
	r.Time = time.Now().UTC().Format(time.RFC3339Nano)
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("job: encoding journal record: %w", err)
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("job: appending journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("job: syncing journal: %w", err)
	}
	return nil
}

// Close closes the underlying file. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
