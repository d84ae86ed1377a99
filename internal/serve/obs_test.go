package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestHealthzBuildInfoAndUptime(t *testing.T) {
	h := newTestServer(2)
	w := do(t, h, "GET", "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var resp struct {
		Status        string `json:"status"`
		Workers       int    `json:"workers"`
		GoVersion     string `json:"go_version"`
		UptimeSeconds int64  `json:"uptime_seconds"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.Workers != 2 {
		t.Errorf("healthz = %+v", resp)
	}
	if !strings.HasPrefix(resp.GoVersion, "go") {
		t.Errorf("go_version = %q, want a goN.NN string", resp.GoVersion)
	}
	if resp.UptimeSeconds < 0 {
		t.Errorf("uptime_seconds = %d, want >= 0", resp.UptimeSeconds)
	}
	// serve-smoke greps the rendered body for this exact fragment.
	if !strings.Contains(w.Body.String(), `"status":"ok"`) {
		t.Errorf("body lost the \"status\":\"ok\" rendering:\n%s", w.Body)
	}
}

func TestDebugTraceEndpoint(t *testing.T) {
	h := newTestServer(2)
	// One full pnr request under the default engines (anneal + A*) so the
	// whole span tree — handler, loader, flow stages — lands in the ring.
	if w := do(t, h, "POST", "/v1/pnr", `{"bench":"aquaflex_3b"}`); w.Code != http.StatusOK {
		t.Fatalf("pnr: %d: %s", w.Code, w.Body)
	}
	w := do(t, h, "GET", "/debug/trace", "")
	if w.Code != http.StatusOK {
		t.Fatalf("trace: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	err := obs.CheckTrace(w.Body.Bytes(),
		"http.pnr", "bench.build", "pnr.flow", "place.anneal", "route.astar", "pnr.attach")
	if err != nil {
		t.Errorf("trace body: %v", err)
	}

	// ?n= limits to the most recent events.
	w = do(t, h, "GET", "/debug/trace?n=1", "")
	var doc struct {
		TraceEvents []obs.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 1 {
		t.Errorf("?n=1 returned %d events", len(doc.TraceEvents))
	}
	if w := do(t, h, "GET", "/debug/trace?n=-1", ""); w.Code != http.StatusBadRequest {
		t.Errorf("negative n: status = %d, want 400", w.Code)
	}
	if w := do(t, h, "GET", "/debug/trace?n=xyz", ""); w.Code != http.StatusBadRequest {
		t.Errorf("non-numeric n: status = %d, want 400", w.Code)
	}
}

func TestAlgorithmMetricsExposition(t *testing.T) {
	h := newTestServer(2)
	if w := do(t, h, "POST", "/v1/pnr", `{"bench":"aquaflex_3b"}`); w.Code != http.StatusOK {
		t.Fatalf("pnr: %d: %s", w.Code, w.Body)
	}
	text := do(t, h, "GET", "/metrics", "").Body.String()
	for _, needle := range []string{
		"parchmint_anneal_temperature",
		"parchmint_anneal_accept_ratio",
		"parchmint_anneal_moves_total",
		"parchmint_anneal_accepted_total",
		`parchmint_route_expansions_total{engine="astar"}`,
		`parchmint_route_pushes_total{engine="astar"}`,
		`parchmint_request_duration_seconds_bucket{endpoint="pnr",le="+Inf"} 1`,
		`parchmint_request_duration_seconds_count{endpoint="pnr"} 1`,
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("metrics missing %q\n%s", needle, text)
		}
	}
	// The anneal ran, so the move counter must be a positive series, not
	// just a declared family.
	if strings.Contains(text, "parchmint_anneal_moves_total 0\n") {
		t.Errorf("anneal moves stayed zero after an anneal run:\n%s", text)
	}
}

// TestCancelledRequestStageAccounting pins the exactly-once contract on
// the cancellation path: a request cancelled mid-place reports the partial
// place duration once and nothing for the stages never reached.
func TestCancelledRequestStageAccounting(t *testing.T) {
	s := New(Config{Workers: 2, BaseSeed: BaseSeedDefault})
	h := s.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel once the place stage is under way: a fixed timer can fire
	// while the request is still being resolved or admitted, before any
	// stage starts. The annealer's first move batch is the signal.
	moves := s.reg.Counter("parchmint_anneal_moves_total", "")
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		for moves.Value() == 0 {
			select {
			case <-finished:
				return
			case <-time.After(time.Millisecond):
			}
		}
		cancel()
	}()
	r := httptest.NewRequest("POST", "/v1/pnr", strings.NewReader(`{"bench":"planar_synthetic_5"}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d: %s", w.Code, StatusClientClosedRequest, w.Body)
	}
	text := do(t, h, "GET", "/metrics", "").Body.String()
	place := `parchmint_stage_seconds_total{task="planar_synthetic_5",stage="place"}`
	if got := strings.Count(text, place); got != 1 {
		t.Errorf("cancelled place stage rendered %d times, want exactly 1:\n%s", got, text)
	}
	if strings.Contains(text, `parchmint_stage_seconds_total{task="planar_synthetic_5",stage="route"}`) {
		t.Errorf("route stage recorded for a request cancelled during place:\n%s", text)
	}
}

func TestRequestIDAndLog(t *testing.T) {
	var logBuf bytes.Buffer
	h := New(Config{Workers: 1, Logger: obs.NewLogger("json", &logBuf)}).Handler()
	w := do(t, h, "GET", "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	reqID := w.Header().Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("response is missing X-Request-Id")
	}
	// IDs carry a per-boot nonce so two service boots never mint the same
	// ID; the sequence still starts at 1 within one boot.
	if !bootIDPattern.MatchString(reqID) {
		t.Errorf("X-Request-Id = %q, want req-<boot nonce>-<seq>", reqID)
	}
	if !strings.HasSuffix(reqID, "-00000001") {
		t.Errorf("first request of a boot minted %q, want sequence 00000001", reqID)
	}
	var rec struct {
		Msg      string `json:"msg"`
		ID       string `json:"id"`
		Endpoint string `json:"endpoint"`
		Status   int    `json:"status"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &rec); err != nil {
		t.Fatalf("request log is not one JSON record: %v\n%s", err, logBuf.String())
	}
	if rec.Msg != "request" || rec.ID != reqID || rec.Endpoint != "healthz" || rec.Status != 200 {
		t.Errorf("request log = %+v, want msg=request id=%s endpoint=healthz status=200", rec, reqID)
	}
	// The request ID also lands on the handler's root span.
	tr := do(t, h, "GET", "/debug/trace", "")
	if !strings.Contains(tr.Body.String(), reqID) {
		t.Errorf("trace lost the request id %s:\n%s", reqID, tr.Body)
	}
}
