package serve

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

// TestRetryAfterHeaderMatchesBody pins the contract between the two
// renderings of an overload hint: the Retry-After header is always
// ceil(retry_after_ms / 1000), never a truncation, and never below 1
// second. A sub-second hint used to render header 0 with ms 900 —
// telling spec-compliant clients to hammer immediately.
func TestRetryAfterHeaderMatchesBody(t *testing.T) {
	cases := []struct {
		retryAfter time.Duration
		wantMS     int64
		wantHeader string
	}{
		{0, 1000, "1"},                       // unset floors to one second
		{-5 * time.Second, 1000, "1"},        // nonsense floors too
		{999 * time.Microsecond, 1000, "1"},  // sub-millisecond rounds to the floor
		{900 * time.Millisecond, 900, "1"},   // sub-second: header rounds UP, ms stays exact
		{time.Second, 1000, "1"},             // exact second
		{1500 * time.Millisecond, 1500, "2"}, // ceil, not truncate
		{2 * time.Second, 2000, "2"},
		{61 * time.Second, 61000, "61"},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/pnr", nil)
		writeError(context.Background(), w, r, &OverloadedError{RetryAfter: tc.retryAfter})
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("RetryAfter=%v: status %d, want 429", tc.retryAfter, w.Code)
		}
		var body errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("RetryAfter=%v: %v", tc.retryAfter, err)
		}
		if body.RetryAfterMS != tc.wantMS {
			t.Errorf("RetryAfter=%v: retry_after_ms = %d, want %d", tc.retryAfter, body.RetryAfterMS, tc.wantMS)
		}
		hdr := w.Header().Get("Retry-After")
		if hdr != tc.wantHeader {
			t.Errorf("RetryAfter=%v: Retry-After header = %q, want %q", tc.retryAfter, hdr, tc.wantHeader)
		}
		// The structural invariant behind the table: header == ceil(ms/1000).
		if want := strconv.FormatInt((body.RetryAfterMS+999)/1000, 10); hdr != want {
			t.Errorf("RetryAfter=%v: header %q != ceil(%dms / 1000) = %q", tc.retryAfter, hdr, body.RetryAfterMS, want)
		}
		if secs, err := strconv.Atoi(hdr); err != nil || secs < 1 {
			t.Errorf("RetryAfter=%v: header %q below the one-second floor", tc.retryAfter, hdr)
		}
	}
}

// TestGzipPanicRecyclesPooledWriter is the regression test for the
// pooled-writer leak: a handler panicking mid-body used to skip the
// deferred Close+Put, so the flate state never returned to the pool —
// and with a recover() upstream, a later request could receive a writer
// still holding the panicked request's partial compression state.
// The middleware must recycle the writer on the panic path (reset, not
// closed — closing would flush garbage) and re-panic.
func TestGzipPanicRecyclesPooledWriter(t *testing.T) {
	s := New(Config{Workers: 1, BaseSeed: BaseSeedDefault})
	defer s.Close()
	boom := s.wrap("boom", func(w http.ResponseWriter, r *http.Request) error {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"partial":`)) // dirty the compressor, then die
		panic("handler exploded mid-body")
	})
	ok := s.wrap("ok", func(w http.ResponseWriter, r *http.Request) error {
		w.Header().Set("Content-Type", "text/plain")
		_, err := io.WriteString(w, "hello world\n")
		return err
	})

	// Cycle panics and healthy requests through the pool several times:
	// with a single pooled writer being reused, any leaked state corrupts
	// the very next compressed response.
	for i := 0; i < 8; i++ {
		req := httptest.NewRequest(http.MethodGet, "/boom", nil)
		req.Header.Set("Accept-Encoding", "gzip")
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("panic did not propagate out of the middleware")
				}
			}()
			boom.ServeHTTP(httptest.NewRecorder(), req)
		}()

		req2 := httptest.NewRequest(http.MethodGet, "/ok", nil)
		req2.Header.Set("Accept-Encoding", "gzip")
		w2 := httptest.NewRecorder()
		ok.ServeHTTP(w2, req2)
		if w2.Code != http.StatusOK {
			t.Fatalf("round %d: healthy request after panic: %d", i, w2.Code)
		}
		if enc := w2.Header().Get("Content-Encoding"); enc != "gzip" {
			t.Fatalf("round %d: Content-Encoding = %q, want gzip", i, enc)
		}
		gz, err := gzip.NewReader(w2.Body)
		if err != nil {
			t.Fatalf("round %d: invalid gzip stream after panic: %v", i, err)
		}
		data, err := io.ReadAll(gz)
		if err != nil {
			t.Fatalf("round %d: reading gzip stream: %v", i, err)
		}
		if string(data) != "hello world\n" {
			t.Fatalf("round %d: body = %q, want %q (pooled writer leaked state)", i, data, "hello world\n")
		}
	}
}

// TestEmptyDeviceIsClientError pins two inputs that are the client's
// fault: a MINT conversion of a device without layers and an SVG render
// of a device with nothing to draw. Both answer 422 with a stable code,
// not 500 "internal".
func TestEmptyDeviceIsClientError(t *testing.T) {
	h := newTestServer(2)
	cases := []struct {
		path, body, code string
	}{
		{"/v1/convert", `{"device":{},"to":"mint"}`, "no-layers"},
		{"/v1/render.svg", `{"device":{"name":"x"}}`, "no-features"},
	}
	for _, tc := range cases {
		w := do(t, h, http.MethodPost, tc.path, tc.body)
		if w.Code != http.StatusUnprocessableEntity {
			t.Errorf("POST %s %s: status %d, want 422; body %s", tc.path, tc.body, w.Code, w.Body)
			continue
		}
		var body errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("POST %s: %v", tc.path, err)
		}
		if body.Code != tc.code {
			t.Errorf("POST %s %s: code %q, want %q", tc.path, tc.body, body.Code, tc.code)
		}
	}
}

// hostileGridBodies are small request bodies whose routing grid would
// exceed geom.MaxGridCells: a tiny utilization inflates the die of a
// suite device, and one oversized component inflates it from inside the
// device.
func hostileGridBodies(t *testing.T) []string {
	t.Helper()
	b, err := bench.ByName("rotary_pcr")
	if err != nil {
		t.Fatal(err)
	}
	d := b.Build()
	d.Components[0].XSpan, d.Components[0].YSpan = 300000, 300000
	dev, err := core.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return []string{
		`{"bench":"rotary_pcr","placer":"greedy","router":"hadlock","utilization":0.0001}`,
		`{"device":` + string(dev) + `,"placer":"greedy","router":"hadlock"}`,
	}
}

// TestOversizedGridIsRejected pins the bound on routing work: a body
// whose grid would exceed geom.MaxGridCells answers 422 grid-too-large
// before any placement starts — on /v1/pnr, on render's automatic
// place-and-route, and as a job.
func TestOversizedGridIsRejected(t *testing.T) {
	h := newTestServer(2)
	bodies := hostileGridBodies(t)
	check := func(path, body string) {
		t.Helper()
		start := time.Now()
		w := do(t, h, http.MethodPost, path, body)
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("POST %s: rejection took %v", path, elapsed)
		}
		if w.Code != http.StatusUnprocessableEntity {
			t.Fatalf("POST %s: status %d, want 422: %s", path, w.Code, w.Body)
		}
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
			t.Fatal(err)
		}
		if eb.Code != "grid-too-large" {
			t.Errorf("POST %s: code %q, want grid-too-large", path, eb.Code)
		}
	}
	check("/v1/render.svg", bodies[1])
	for i, body := range bodies {
		check("/v1/pnr", body)

		sub := do(t, h, http.MethodPost, "/v1/jobs", `{"op":"pnr",`+body[1:])
		if sub.Code != http.StatusAccepted {
			t.Fatalf("body %d: job submit status %d: %s", i, sub.Code, sub.Body)
		}
		doc := waitJob(t, h, decodeJobDoc(t, sub.Body.Bytes()).ID)
		if doc.Status != "failed" || doc.Error == nil ||
			doc.Error.Code != "grid-too-large" || doc.Error.HTTPStatus != http.StatusUnprocessableEntity {
			t.Errorf("body %d: job ended %s with error %+v, want failed grid-too-large 422", i, doc.Status, doc.Error)
		}
	}
}
