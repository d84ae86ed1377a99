package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// newTestServer builds a handler with a deterministic configuration.
func newTestServer(workers int) http.Handler {
	return New(Config{Workers: workers, BaseSeed: BaseSeedDefault}).Handler()
}

// do posts a JSON body (or issues a GET when body is empty) and returns
// the recorded response.
func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// checkGolden compares got against testdata/<name>, rewriting with -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n got: %s\nwant: %s", name, got, want)
	}
}

func TestValidateBenchGolden(t *testing.T) {
	h := newTestServer(2)
	w := do(t, h, "POST", "/v1/validate", `{"bench":"rotary_pcr"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	checkGolden(t, "validate_rotary_pcr.json", w.Body.Bytes())
}

func TestStatsBenchGolden(t *testing.T) {
	h := newTestServer(2)
	w := do(t, h, "POST", "/v1/stats", `{"bench":"aquaflex_3b"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	checkGolden(t, "stats_aquaflex_3b.json", w.Body.Bytes())
}

func TestBenchListGolden(t *testing.T) {
	h := newTestServer(2)
	w := do(t, h, "GET", "/v1/bench", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	checkGolden(t, "bench_list.json", w.Body.Bytes())
}

func TestBenchGet(t *testing.T) {
	h := newTestServer(2)
	w := do(t, h, "GET", "/v1/bench/rotary_pcr", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var doc struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil || doc.Name != "rotary_pcr" {
		t.Errorf("body name = %q, err %v", doc.Name, err)
	}
	if w := do(t, h, "GET", "/v1/bench/nope", ""); w.Code != http.StatusNotFound {
		t.Errorf("unknown benchmark status = %d, want 404", w.Code)
	}
}

func TestConvertRoundTrip(t *testing.T) {
	h := newTestServer(2)
	// JSON -> MINT.
	w := do(t, h, "POST", "/v1/convert", `{"bench":"aquaflex_3b","to":"mint"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("to mint: status = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Target string `json:"target"`
		Output string `json:"output"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Target != "mint" || !strings.Contains(resp.Output, "DEVICE") {
		t.Errorf("target %q, output %.40q", resp.Target, resp.Output)
	}
	// MINT text -> JSON (default target for MINT input).
	body, _ := json.Marshal(map[string]string{
		"text":   "DEVICE demo\nLAYER FLOW\nPORT a, b r=100 ;\nCHANNEL c from a 1 to b 1 w=120 ;\nEND LAYER\n",
		"format": "mint",
	})
	w = do(t, h, "POST", "/v1/convert", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("to json: status = %d: %s", w.Code, w.Body)
	}
	var back struct {
		Target string          `json:"target"`
		Device json.RawMessage `json:"device"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Target != "json" || len(back.Device) == 0 {
		t.Errorf("target %q, device %d bytes", back.Target, len(back.Device))
	}
}

func TestPNREndpoint(t *testing.T) {
	h := newTestServer(2)
	w := do(t, h, "POST", "/v1/pnr", `{"bench":"aquaflex_3b","placer":"greedy"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Seed   uint64 `json:"seed"`
		Placer string `json:"placer"`
		Route  struct {
			Routed int `json:"routed"`
			Total  int `json:"total"`
		} `json:"route"`
		Device json.RawMessage `json:"device"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Placer != "greedy" || resp.Seed == 0 || resp.Route.Total == 0 || len(resp.Device) == 0 {
		t.Errorf("response = %+v", resp)
	}
}

func TestRenderSVG(t *testing.T) {
	h := newTestServer(2)
	w := do(t, h, "POST", "/v1/render.svg", `{"bench":"rotary_pcr"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(w.Body.String(), "<svg") {
		t.Error("body is not SVG")
	}
}

func TestHealthz(t *testing.T) {
	h := newTestServer(4)
	w := do(t, h, "GET", "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var resp struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.Workers != 4 {
		t.Errorf("healthz = %+v", resp)
	}
}

func TestErrorStatusMapping(t *testing.T) {
	h := newTestServer(2)
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"no source", "/v1/validate", `{}`, http.StatusBadRequest},
		{"body not json", "/v1/validate", `nope`, http.StatusBadRequest},
		{"unknown bench", "/v1/validate", `{"bench":"nope"}`, http.StatusNotFound},
		{"bad device json", "/v1/validate", `{"text":"not json","format":"json"}`, http.StatusBadRequest},
		{"bad mint", "/v1/convert", `{"text":"not mint","format":"mint"}`, http.StatusBadRequest},
		{"text without format", "/v1/stats", `{"text":"x"}`, http.StatusBadRequest},
		{"unknown placer", "/v1/pnr", `{"bench":"aquaflex_3b","placer":"nope"}`, http.StatusBadRequest},
		{"bad convert target", "/v1/convert", `{"bench":"aquaflex_3b","to":"xml"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := do(t, h, "POST", c.path, c.body)
			if w.Code != c.want {
				t.Errorf("status = %d, want %d: %s", w.Code, c.want, w.Body)
			}
			var eb struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Errorf("error body = %q, err %v", w.Body, err)
			}
		})
	}
}

func TestPNRInvalidDevice(t *testing.T) {
	h := newTestServer(2)
	// Structurally parseable but semantically broken: the connection
	// references a component that does not exist.
	device := `{
	  "name": "broken",
	  "layers": [{"id": "flow", "name": "flow", "type": "FLOW"}],
	  "components": [{
	    "id": "p1", "name": "p1", "entity": "PORT", "layers": ["flow"],
	    "x-span": 200, "y-span": 200,
	    "ports": [{"label": "port1", "layer": "flow", "x": 100, "y": 100}]
	  }],
	  "connections": [{
	    "id": "c1", "name": "c1", "layer": "flow",
	    "source": {"component": "ghost", "port": "port1"},
	    "sinks": [{"component": "p1", "port": "port1"}]
	  }]
	}`
	body, _ := json.Marshal(map[string]json.RawMessage{"device": json.RawMessage(device)})
	w := do(t, h, "POST", "/v1/pnr", string(body))
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", w.Code, w.Body)
	}
	var eb struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Code != "invalid-device" {
		t.Errorf("error code = %q, err %v", eb.Code, err)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	h := New(Config{Workers: 1, MaxBodyBytes: 64}).Handler()
	big := fmt.Sprintf(`{"bench":"rotary_pcr","text":%q}`, strings.Repeat("x", 1024))
	w := do(t, h, "POST", "/v1/validate", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413: %s", w.Code, w.Body)
	}
}

func TestPNRCancelledRequest(t *testing.T) {
	h := newTestServer(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest("POST", "/v1/pnr", strings.NewReader(`{"bench":"rotary_pcr"}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != StatusClientClosedRequest {
		t.Errorf("status = %d, want %d: %s", w.Code, StatusClientClosedRequest, w.Body)
	}
}

func TestPNRCancelledMidFlight(t *testing.T) {
	h := newTestServer(2)
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel shortly after the anneal starts; the annealer must abort
	// within one move batch, so the request ends long before a full run.
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	r := httptest.NewRequest("POST", "/v1/pnr", strings.NewReader(`{"bench":"planar_synthetic_5"}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d: %s", w.Code, StatusClientClosedRequest, w.Body)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("cancelled request took %v; annealing did not abort promptly", d)
	}
}

func TestRequestTimeout(t *testing.T) {
	h := New(Config{Workers: 1, RequestTimeout: time.Nanosecond}).Handler()
	w := do(t, h, "POST", "/v1/pnr", `{"bench":"rotary_pcr"}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504: %s", w.Code, w.Body)
	}
}

// TestPNRDeterministicAcrossWorkers is the acceptance check: identical
// request bodies yield byte-identical responses at any worker count.
func TestPNRDeterministicAcrossWorkers(t *testing.T) {
	const body = `{"bench":"aquaflex_3b"}`
	var want []byte
	for _, workers := range []int{1, 4} {
		h := newTestServer(workers)
		for rep := 0; rep < 2; rep++ {
			w := do(t, h, "POST", "/v1/pnr", body)
			if w.Code != http.StatusOK {
				t.Fatalf("workers=%d rep=%d: status = %d: %s", workers, rep, w.Code, w.Body)
			}
			if want == nil {
				want = w.Body.Bytes()
			} else if !bytes.Equal(w.Body.Bytes(), want) {
				t.Fatalf("workers=%d rep=%d: response bytes differ", workers, rep)
			}
		}
	}
}

// TestPNRConcurrentHammer drives /v1/pnr from many goroutines at once.
// Run with -race this doubles as the data-race check on the gate, the
// timings accumulator, and the metrics counters; every response must be
// a byte-identical 200. It deliberately does not skip under -short: the
// race suite runs with -short.
func TestPNRConcurrentHammer(t *testing.T) {
	h := newTestServer(4)
	const body = `{"bench":"aquaflex_3b","placer":"greedy"}`
	const goroutines, reps = 8, 3
	bodies := make([][]byte, goroutines*reps)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				w := do(t, h, "POST", "/v1/pnr", body)
				if w.Code != http.StatusOK {
					t.Errorf("goroutine %d rep %d: status %d: %s", g, rep, w.Code, w.Body)
					return
				}
				bodies[g*reps+rep] = w.Body.Bytes()
			}
		}(g)
	}
	wg.Wait()
	for i := 1; i < len(bodies); i++ {
		if bodies[i] == nil {
			continue
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("response %d differs from response 0 under concurrency", i)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	h := newTestServer(2)
	if w := do(t, h, "POST", "/v1/validate", `{"bench":"rotary_pcr"}`); w.Code != http.StatusOK {
		t.Fatalf("validate: %d", w.Code)
	}
	if w := do(t, h, "POST", "/v1/pnr", `{"bench":"aquaflex_3b","placer":"greedy"}`); w.Code != http.StatusOK {
		t.Fatalf("pnr: %d", w.Code)
	}
	if w := do(t, h, "POST", "/v1/validate", `{"bench":"nope"}`); w.Code != http.StatusNotFound {
		t.Fatalf("404 probe: %d", w.Code)
	}
	w := do(t, h, "GET", "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	text := w.Body.String()
	for _, needle := range []string{
		`parchmint_requests_total{endpoint="validate",status="200"} 1`,
		`parchmint_requests_total{endpoint="validate",status="404"} 1`,
		`parchmint_requests_total{endpoint="pnr",status="200"} 1`,
		`parchmint_errors_total{endpoint="validate"} 1`,
		`parchmint_request_seconds_total{endpoint="pnr"}`,
		`parchmint_stage_seconds_total{task="aquaflex_3b",stage="place"}`,
		`parchmint_stage_seconds_total{task="aquaflex_3b",stage="route"}`,
		`parchmint_workers 2`,
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("metrics missing %q\n%s", needle, text)
		}
	}
}

func TestExplicitSeedOverridesDerived(t *testing.T) {
	h := newTestServer(1)
	w := do(t, h, "POST", "/v1/pnr", `{"bench":"aquaflex_3b","seed":7,"placer":"greedy"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Seed uint64 `json:"seed"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Seed != 7 {
		t.Errorf("seed = %d, want the request's 7", resp.Seed)
	}
}

// TestBenchListEnvelope covers the {items, total} listing envelope, its
// ?prefix= filter, and the refusal of any format parameter — including
// the removed legacy bare-array rendering.
func TestBenchListEnvelope(t *testing.T) {
	h := newTestServer(1)
	w := do(t, h, "GET", "/v1/bench?prefix=planar", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Items []struct {
			Name string `json:"name"`
		} `json:"items"`
		Total int `json:"total"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding listing: %v", err)
	}
	if resp.Total != len(resp.Items) || resp.Total == 0 {
		t.Fatalf("total = %d with %d items", resp.Total, len(resp.Items))
	}
	for _, item := range resp.Items {
		if !strings.HasPrefix(item.Name, "planar") {
			t.Errorf("prefix filter leaked %q", item.Name)
		}
	}
	none := do(t, h, "GET", "/v1/bench?prefix=zzz", "")
	if !strings.Contains(none.Body.String(), `"items":[]`) {
		t.Errorf("empty filter should render an empty items array: %s", none.Body)
	}
	for _, format := range []string{"legacy", "csv"} {
		if bad := do(t, h, "GET", "/v1/bench?format="+format, ""); bad.Code != http.StatusBadRequest {
			t.Errorf("format=%s: status = %d, want 400", format, bad.Code)
		}
	}
}

// TestErrorEnvelopeFallbackCodes: every non-2xx body carries a stable
// code and the request ID, even when the underlying error defines no
// Code() of its own.
func TestErrorEnvelopeFallbackCodes(t *testing.T) {
	h := newTestServer(1)
	for _, tc := range []struct {
		method, path, body, wantCode string
		wantStatus                   int
	}{
		{"GET", "/v1/bench/no_such_bench", "", "not-found", http.StatusNotFound},
		{"POST", "/v1/stats", `{"bench":"no_such_bench"}`, "not-found", http.StatusNotFound},
		{"POST", "/v1/stats", `{}`, "bad-request", http.StatusBadRequest},
		{"POST", "/v1/stats", `{"bench":"rotary_pcr","text":"V1","format":"mint"}`, "bad-request", http.StatusBadRequest},
	} {
		w := do(t, h, tc.method, tc.path, tc.body)
		if w.Code != tc.wantStatus {
			t.Errorf("%s %s: status = %d, want %d", tc.method, tc.path, w.Code, tc.wantStatus)
			continue
		}
		var eb struct {
			Error     string `json:"error"`
			Code      string `json:"code"`
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
			t.Errorf("%s %s: body is not the error envelope: %s", tc.method, tc.path, w.Body)
			continue
		}
		if eb.Code != tc.wantCode {
			t.Errorf("%s %s: code = %q, want %q", tc.method, tc.path, eb.Code, tc.wantCode)
		}
		if eb.RequestID != w.Header().Get("X-Request-Id") {
			t.Errorf("%s %s: request_id = %q, header = %q", tc.method, tc.path, eb.RequestID, w.Header().Get("X-Request-Id"))
		}
	}
}
