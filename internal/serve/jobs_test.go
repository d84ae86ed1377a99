package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/job"
)

// jobDoc mirrors the job document fields the tests assert on.
type jobDoc struct {
	ID       string `json:"id"`
	Op       string `json:"op"`
	Status   string `json:"status"`
	CacheKey string `json:"cache_key"`
	Cache    string `json:"cache"`
	Result   *struct {
		URL         string `json:"url"`
		ContentType string `json:"content_type"`
		Bytes       int    `json:"bytes"`
	} `json:"result"`
	Error *struct {
		Error      string `json:"error"`
		Code       string `json:"code"`
		HTTPStatus int    `json:"http_status"`
	} `json:"error"`
}

func decodeJobDoc(t *testing.T, body []byte) jobDoc {
	t.Helper()
	var doc jobDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decoding job document %s: %v", body, err)
	}
	return doc
}

// waitJob polls the status endpoint until the job is terminal.
func waitJob(t *testing.T, h http.Handler, id string) jobDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		w := do(t, h, "GET", "/v1/jobs/"+id, "")
		if w.Code != http.StatusOK {
			t.Fatalf("GET job: status = %d: %s", w.Code, w.Body)
		}
		doc := decodeJobDoc(t, w.Body.Bytes())
		switch doc.Status {
		case "completed", "failed", "canceled":
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %s", id, doc.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobResultMatchesSyncEndpoint pins the async surface's core promise:
// a job runs the same cached execution path as the synchronous endpoint,
// so its result bytes are byte-identical to a direct POST and the two
// share one cache entry.
func TestJobResultMatchesSyncEndpoint(t *testing.T) {
	s := New(Config{Workers: 2, BaseSeed: BaseSeedDefault, CacheBytes: 1 << 20})
	defer s.Close()
	h := s.Handler()

	sync := do(t, h, "POST", "/v1/stats", `{"bench":"rotary_pcr"}`)
	if sync.Code != http.StatusOK {
		t.Fatalf("sync status = %d", sync.Code)
	}

	w := do(t, h, "POST", "/v1/jobs", `{"op":"stats","bench":"rotary_pcr"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", w.Code, w.Body)
	}
	doc := decodeJobDoc(t, w.Body.Bytes())
	if doc.ID == "" || doc.Op != "stats" || doc.CacheKey == "" {
		t.Fatalf("submit document incomplete: %s", w.Body)
	}

	final := waitJob(t, h, doc.ID)
	if final.Status != "completed" {
		t.Fatalf("status = %s: %+v", final.Status, final.Error)
	}
	// The sync request already cached this address, so the job is a hit.
	if final.Cache != "hit" {
		t.Errorf("cache outcome = %q, want hit (sync request warmed the entry)", final.Cache)
	}
	if final.Result == nil || final.Result.URL != "/v1/jobs/"+doc.ID+"/result" {
		t.Fatalf("result location missing: %+v", final.Result)
	}

	res := do(t, h, "GET", final.Result.URL, "")
	if res.Code != http.StatusOK {
		t.Fatalf("result status = %d", res.Code)
	}
	if !bytes.Equal(res.Body.Bytes(), sync.Body.Bytes()) {
		t.Error("job result bytes differ from the synchronous endpoint")
	}
	if got := res.Header().Get(cacheHeader); got != "hit" {
		t.Errorf("%s = %q, want hit", cacheHeader, got)
	}
}

// TestJobSubmitValidation: the job surface shares the operation table's
// validator, so bad envelopes die at submit with the standard error body.
func TestJobSubmitValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	for _, tc := range []struct {
		name, body, wantCode string
	}{
		{"unknown op", `{"op":"explode","bench":"rotary_pcr"}`, "bad-request"},
		{"no source", `{"op":"stats"}`, "bad-request"},
		{"two sources", `{"op":"stats","bench":"rotary_pcr","text":"x","format":"mint"}`, "bad-request"},
		{"bad placer", `{"op":"pnr","bench":"rotary_pcr","placer":"oracle"}`, "bad-request"},
		{"bad convert target", `{"op":"convert","bench":"rotary_pcr","to":"xml"}`, "bad-request"},
	} {
		w := do(t, h, "POST", "/v1/jobs", tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d: %s", tc.name, w.Code, w.Body)
			continue
		}
		var eb struct {
			Code      string `json:"code"`
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Code != tc.wantCode {
			t.Errorf("%s: body = %s, want code %q", tc.name, w.Body, tc.wantCode)
		}
		if eb.RequestID == "" || eb.RequestID != w.Header().Get("X-Request-Id") {
			t.Errorf("%s: request_id %q does not echo X-Request-Id %q",
				tc.name, eb.RequestID, w.Header().Get("X-Request-Id"))
		}
	}
	// render.svg aliases render on the job surface.
	w := do(t, h, "POST", "/v1/jobs", `{"op":"render.svg","bench":"rotary_pcr"}`)
	if w.Code != http.StatusAccepted {
		t.Errorf("render.svg alias: status = %d: %s", w.Code, w.Body)
	} else {
		doc := decodeJobDoc(t, w.Body.Bytes())
		if doc.Op != "render" {
			t.Errorf("render.svg alias resolves to op %q", doc.Op)
		}
		waitJob(t, h, doc.ID)
	}
}

// TestJobResultConflictAndCancel: an unfinished job answers 409 on its
// result URL; DELETE cancels it and the document reports canceled.
func TestJobResultConflictAndCancel(t *testing.T) {
	s := New(Config{Workers: 1, BaseSeed: BaseSeedDefault})
	defer s.Close()
	h := s.Handler()
	w := do(t, h, "POST", "/v1/jobs", `{"op":"pnr","bench":"planar_synthetic_5"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", w.Code, w.Body)
	}
	doc := decodeJobDoc(t, w.Body.Bytes())

	res := do(t, h, "GET", "/v1/jobs/"+doc.ID+"/result", "")
	if res.Code != http.StatusConflict {
		t.Fatalf("result before completion: status = %d, want 409: %s", res.Code, res.Body)
	}
	var eb struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(res.Body.Bytes(), &eb); err != nil || eb.Code != "conflict" {
		t.Errorf("409 body = %s, want code conflict", res.Body)
	}

	if del := do(t, h, "DELETE", "/v1/jobs/"+doc.ID, ""); del.Code != http.StatusOK {
		t.Fatalf("cancel status = %d", del.Code)
	}
	final := waitJob(t, h, doc.ID)
	if final.Status != "canceled" {
		t.Fatalf("status after DELETE = %s, want canceled", final.Status)
	}
	if unknown := do(t, h, "DELETE", "/v1/jobs/job-none-000000", ""); unknown.Code != http.StatusNotFound {
		t.Errorf("cancel unknown job: status = %d, want 404", unknown.Code)
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	id, event string
	data      []byte
}

// readSSE parses events off an open stream until fn returns false or the
// stream ends.
func readSSE(r *bufio.Reader, fn func(sseEvent) bool) error {
	var ev sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if ev.event != "" || len(ev.data) > 0 {
				if !fn(ev) {
					return nil
				}
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			ev.id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			ev.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(line[len("data: "):])
		case strings.HasPrefix(line, ":"):
			// comment / heartbeat
		}
	}
}

// TestJobEventsStreamToDone consumes a completed job's SSE stream over a
// real connection: status transitions arrive in order, pnr stage events
// ride the existing observer hooks, and the stream ends with the terminal
// done event carrying the result location.
func TestJobEventsStreamToDone(t *testing.T) {
	s := New(Config{Workers: 2, BaseSeed: BaseSeedDefault, CacheBytes: 1 << 20, JobHeartbeat: 20 * time.Millisecond})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"op":"pnr","bench":"rotary_pcr"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	doc := decodeJobDoc(t, body)

	stream, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var types []string
	var done struct {
		Status string `json:"status"`
		Cache  string `json:"cache"`
		Result string `json:"result"`
	}
	err = readSSE(bufio.NewReader(stream.Body), func(ev sseEvent) bool {
		types = append(types, ev.event)
		if ev.event == "done" {
			if err := json.Unmarshal(ev.data, &done); err != nil {
				t.Errorf("done payload %s: %v", ev.data, err)
			}
			return false
		}
		return true
	})
	if err != nil {
		t.Fatalf("stream ended without done event: %v (saw %v)", err, types)
	}
	if types[0] != "status" {
		t.Errorf("first event = %q, want status", types[0])
	}
	stages := 0
	for _, typ := range types {
		if typ == "stage" {
			stages++
		}
	}
	if stages < 2 {
		t.Errorf("saw %d stage events, want >= 2 (place, route): %v", stages, types)
	}
	if done.Status != "completed" || done.Result != "/v1/jobs/"+doc.ID+"/result" {
		t.Errorf("done = %+v", done)
	}

	// Last-Event-ID resumption: reconnecting with the final id yields the
	// tail of the stream (terminal, no replay of earlier events).
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+doc.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", fmt.Sprint(len(types)-1))
	resume, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resume.Body.Close()
	var resumed []string
	_ = readSSE(bufio.NewReader(resume.Body), func(ev sseEvent) bool {
		resumed = append(resumed, ev.event)
		return ev.event != "done"
	})
	if len(resumed) != 1 || resumed[0] != "done" {
		t.Errorf("resumed events = %v, want exactly [done]", resumed)
	}
}

// TestJobSSEDisconnectCancels pins the ownership contract of satellite
// streams: a watcher that goes away mid-run cancels the job, the gate
// slot frees, and the journal records the canceled transition.
func TestJobSSEDisconnectCancels(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := job.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s := New(Config{Workers: 1, BaseSeed: BaseSeedDefault, Journal: j, JobHeartbeat: 10 * time.Millisecond})
	defer s.Close()
	h := s.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()

	// planar_synthetic_5 anneals long enough that the disconnect lands
	// mid-run.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"op":"pnr","bench":"planar_synthetic_5"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	doc := decodeJobDoc(t, body)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+doc.ID+"/events", nil)
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one event to be sure the stream is live, then vanish.
	br := bufio.NewReader(stream.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	stream.Body.Close()

	final := waitJob(t, h, doc.ID)
	if final.Status != "canceled" {
		t.Fatalf("status after disconnect = %s, want canceled", final.Status)
	}
	// The gate slot is released: the solvers observed the cancellation and
	// unwound out of the admission gate.
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gate still holds %d slots after cancellation", s.gate.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
	// The canceled transition reached the journal.
	waitForJournal(t, path, `"e":"cancel"`)
}

// waitForJournal polls the journal file until needle appears; appends are
// asynchronous with respect to the HTTP responses that triggered them.
func waitForJournal(t *testing.T, path, needle string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		data, err := os.ReadFile(path)
		if err == nil && strings.Contains(string(data), needle) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal never recorded %q:\n%s", needle, data)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobJournalReplayByteIdentical is the acceptance scenario: submit a
// pnr job under a journal, capture its bytes, abandon the server without
// shutdown (the in-process stand-in for kill -9 — the journal sees no
// close), boot a fresh server from the same journal, and the replayed job
// serves byte-identical bytes as a durable cache hit.
func TestJobJournalReplayByteIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := job.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	first := New(Config{Workers: 2, BaseSeed: BaseSeedDefault, CacheBytes: 1 << 20, Journal: j})
	h := first.Handler()
	w := do(t, h, "POST", "/v1/jobs", `{"op":"pnr","bench":"rotary_pcr","seed":7}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", w.Code, w.Body)
	}
	doc := decodeJobDoc(t, w.Body.Bytes())
	if waitJob(t, h, doc.ID).Status != "completed" {
		t.Fatal("first-boot job did not complete")
	}
	res := do(t, h, "GET", "/v1/jobs/"+doc.ID+"/result", "")
	if res.Code != http.StatusOK {
		t.Fatalf("first-boot result status = %d", res.Code)
	}
	firstBytes := append([]byte(nil), res.Body.Bytes()...)
	// No Close, no journal close: the process "dies" here.

	j2, err := job.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	second := New(Config{Workers: 2, BaseSeed: BaseSeedDefault, CacheBytes: 1 << 20, Journal: j2})
	defer second.Close()
	h2 := second.Handler()

	got := do(t, h2, "GET", "/v1/jobs/"+doc.ID, "")
	if got.Code != http.StatusOK {
		t.Fatalf("replayed job lookup: status = %d: %s", got.Code, got.Body)
	}
	replayed := decodeJobDoc(t, got.Body.Bytes())
	if replayed.Status != "completed" || replayed.Cache != "hit" {
		t.Fatalf("replayed job = %s/%q, want completed/hit", replayed.Status, replayed.Cache)
	}
	res2 := do(t, h2, "GET", "/v1/jobs/"+doc.ID+"/result", "")
	if res2.Code != http.StatusOK {
		t.Fatalf("replayed result status = %d", res2.Code)
	}
	if !bytes.Equal(res2.Body.Bytes(), firstBytes) {
		t.Error("replayed result bytes differ from the first boot")
	}
	if hdr := res2.Header().Get(cacheHeader); hdr != "hit" {
		t.Errorf("replayed %s = %q, want hit", cacheHeader, hdr)
	}
	// The journaled result re-seeded the content-addressed cache: the
	// synchronous endpoint hits without recomputing.
	sync := do(t, h2, "POST", "/v1/pnr", `{"bench":"rotary_pcr","seed":7}`)
	if sync.Code != http.StatusOK {
		t.Fatalf("sync after replay: status = %d", sync.Code)
	}
	if hdr := sync.Header().Get(cacheHeader); hdr != "hit" {
		t.Errorf("sync after replay: %s = %q, want hit (journal seeds the cache)", cacheHeader, hdr)
	}
	if !bytes.Equal(sync.Body.Bytes(), firstBytes) {
		t.Error("sync bytes after replay differ from the journaled job")
	}
}

// TestJobInterruptedReenqueuedOnBoot: a journal holding a submit with no
// terminal record — a job caught mid-flight by a crash — re-runs
// deterministically on the next boot.
func TestJobInterruptedReenqueuedOnBoot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	line := `{"e":"submit","id":"job-dead-000001","op":"stats","envelope":{"bench":"rotary_pcr"}}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := job.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s := New(Config{Workers: 1, BaseSeed: BaseSeedDefault, CacheBytes: 1 << 20, Journal: j})
	defer s.Close()
	h := s.Handler()
	final := waitJob(t, h, "job-dead-000001")
	if final.Status != "completed" {
		t.Fatalf("re-enqueued job = %s: %+v", final.Status, final.Error)
	}
	sync := do(t, h, "POST", "/v1/stats", `{"bench":"rotary_pcr"}`)
	res := do(t, h, "GET", "/v1/jobs/job-dead-000001/result", "")
	if !bytes.Equal(res.Body.Bytes(), sync.Body.Bytes()) {
		t.Error("re-run job bytes differ from the synchronous endpoint")
	}
}

// TestJobList covers the listing envelope and its status filter.
func TestJobList(t *testing.T) {
	s := New(Config{Workers: 2, BaseSeed: BaseSeedDefault})
	defer s.Close()
	h := s.Handler()
	w := do(t, h, "POST", "/v1/jobs", `{"op":"stats","bench":"rotary_pcr"}`)
	doc := decodeJobDoc(t, w.Body.Bytes())
	waitJob(t, h, doc.ID)

	list := do(t, h, "GET", "/v1/jobs", "")
	var resp struct {
		Items []jobDoc `json:"items"`
		Total int      `json:"total"`
	}
	if err := json.Unmarshal(list.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding list: %v", err)
	}
	if resp.Total != 1 || len(resp.Items) != 1 || resp.Items[0].ID != doc.ID {
		t.Errorf("list = %s", list.Body)
	}
	empty := do(t, h, "GET", "/v1/jobs?status=running", "")
	if err := json.Unmarshal(empty.Body.Bytes(), &resp); err != nil || resp.Total != 0 {
		t.Errorf("filtered list = %s", empty.Body)
	}
}

// TestJobSubmitJournalFailure pins the durability promise of a 202: when
// the submit record cannot be journaled (here, appends after Close fail)
// the server answers 503 journal-unavailable and keeps no job.
func TestJobSubmitJournalFailure(t *testing.T) {
	j, err := job.OpenJournal(filepath.Join(t.TempDir(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, BaseSeed: BaseSeedDefault, Journal: j})
	defer s.Close()
	h := s.Handler()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	w := do(t, h, "POST", "/v1/jobs", `{"op":"stats","bench":"rotary_pcr"}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit status = %d, want 503: %s", w.Code, w.Body)
	}
	var body errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Code != "journal-unavailable" {
		t.Errorf("code = %q, want journal-unavailable", body.Code)
	}
	list := do(t, h, "GET", "/v1/jobs", "")
	var resp struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal(list.Body.Bytes(), &resp); err != nil || resp.Total != 0 {
		t.Errorf("list after failed submit = %s", list.Body)
	}
}

// readAll drains and closes a response body.
func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}
