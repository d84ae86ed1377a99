package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stats"
)

// The hot-path codec contracts: the hand-rolled envelope decoder and the
// append encoders must be indistinguishable — byte for byte, field for
// field — from the encoding/json paths they replaced, because cache
// addresses, journaled job envelopes, and golden response bodies all
// flow through them.

// envelopeCases are the request bodies both decoders chew through:
// well-formed, hostile, and deliberately weird (duplicate keys, case
// variants, nulls, unknown fields, trailing garbage).
var envelopeCases = []string{
	`{}`,
	`null`,
	``,
	`   `,
	`{"bench":"rotary_pcr"}`,
	`{"BENCH":"rotary_pcr","Seed":7}`,
	`{"bench":"a","bench":"b"}`,
	`{"device":{"name":"d","layers":[]}}`,
	`{"device":null}`,
	`{"device":[1,2,{"x":"y"}]}`,
	`{"text":"v1.1\nDEVICE d\n","format":"mint"}`,
	`{"seed":18446744073709551615}`,
	`{"seed":null,"placer":null,"labels":null,"scale":null}`,
	`{"utilization":0.35,"replicas":4,"scale":2.5,"labels":true}`,
	`{"replicas":-3}`,
	`{"to":"json","unknown":{"deep":[true,null]},"labels":false}`,
	`{"bench":"\u0041\ud83d\ude00<&>"}`,
	"{\"bench\":\"x\"}garbage after",
	`{"bench":"x"}  {"bench":"y"}`,
	`{"seed":1.5}`,
	`{"seed":-1}`,
	`{"labels":"yes"}`,
	`{"bench":42}`,
	`{"bench":"x"`,
	`[1,2,3]`,
	`{"scale":1e-3,"utilization":1e21}`,
	`{"replicas":2147483647}`,
	`{"text":"\u0000\u001f"}`,
}

// stdDecodeRequest is the reference decoding: exactly what decodeRequest
// did before the hand parser, a json.Decoder reading one value.
func stdDecodeRequest(data string, req *request) error {
	return json.NewDecoder(strings.NewReader(data)).Decode(req)
}

func TestParseRequestMatchesStd(t *testing.T) {
	for _, tc := range envelopeCases {
		var want request
		wantErr := stdDecodeRequest(tc, &want)
		var got request
		gotErr := parseRequest([]byte(tc), &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("parseRequest(%q) error = %v, std error = %v", tc, gotErr, wantErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parseRequest(%q) = %+v, std = %+v", tc, got, want)
		}
	}
}

func TestAppendRequestJSONMatchesStd(t *testing.T) {
	reqs := []request{
		{},
		{Bench: "rotary_pcr"},
		{Bench: "a<&>\u2028", Seed: 18446744073709551615, Placer: "anneal", Router: "astar"},
		{Device: json.RawMessage(`{ "name" : "d",
			"layers" : [ 1, "two", null ] }`), Utilization: 0.35},
		{Device: json.RawMessage(`null`)},
		{Text: "v1.1\nDEVICE d\n", Format: "mint", To: "json"},
		{Scale: 2.5, Labels: true, Replicas: -3},
		{Utilization: 1e-7, Scale: 1e21},
	}
	// Every decodable envelope case must round-trip identically too.
	for _, tc := range envelopeCases {
		var req request
		if stdDecodeRequest(tc, &req) == nil {
			reqs = append(reqs, req)
		}
	}
	for _, req := range reqs {
		want, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", req, err)
		}
		got, err := appendRequestJSON(nil, &req)
		if err != nil {
			t.Fatalf("appendRequestJSON(%+v): %v", req, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("appendRequestJSON(%+v):\n got %s\nwant %s", req, got, want)
		}
	}
}

func TestParseBatchRequestMatchesStd(t *testing.T) {
	cases := []string{
		`{}`,
		`null`,
		``,
		`{"items":[]}`,
		`{"items":null}`,
		`{"ITEMS":[{"op":"stats","bench":"rotary_pcr"}]}`,
		`{"items":[{"op":"validate","device":{"k":1}},null,{"seed":9}]}`,
		`{"items":[{"op":"a"}],"items":[{"op":"b"},{"op":"c"}]}`,
		`{"extra":1,"items":[{"op":"pnr","replicas":2,"unknown":[]}]}`,
		`{"items":[{"op":42}]}`,
		`{"items":{"op":"x"}}`,
		`{"items":[`,
	}
	for _, tc := range cases {
		var want batchRequest
		wantErr := json.NewDecoder(strings.NewReader(tc)).Decode(&want)
		var got batchRequest
		gotErr := parseBatchRequest([]byte(tc), &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("parseBatchRequest(%q) error = %v, std error = %v", tc, gotErr, wantErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parseBatchRequest(%q) = %+v, std = %+v", tc, got, want)
		}
	}
}

func TestParseJobSubmitMatchesStd(t *testing.T) {
	cases := []string{
		`{}`,
		`null`,
		`{"op":"stats","bench":"rotary_pcr"}`,
		`{"OP":"pnr","seed":11,"replicas":3}`,
		`{"op":null,"device":{"a":[false]}}`,
		`{"op":"x","op":"y","unknown":1}`,
		`{"op":true}`,
	}
	for _, tc := range cases {
		var want jobSubmitRequest
		wantErr := json.NewDecoder(strings.NewReader(tc)).Decode(&want)
		var got jobSubmitRequest
		gotErr := parseJobSubmit([]byte(tc), &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("parseJobSubmit(%q) error = %v, std error = %v", tc, gotErr, wantErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parseJobSubmit(%q) = %+v, std = %+v", tc, got, want)
		}
	}
}

func TestResponseEncodersMatchStd(t *testing.T) {
	check := func(name string, got []byte, v any) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: json.Marshal: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}

	validates := []validateResponse{
		{},
		{Device: "d<&>", OK: true, Diagnostics: []diagDTO{}},
		{Device: "d", Errors: 2, Warnings: 1,
			Diagnostics: []diagDTO{{Severity: "error", Code: "E001", Path: "layers[0]", Message: "bad \"layer\""}},
			Schema:      []string{"a", "b\u2029"}},
	}
	for _, v := range validates {
		check("validateResponse", appendValidateResponse(nil, &v), &v)
	}

	converts := []convertResponse{
		{Target: "mint", Output: "v1.1\nDEVICE d\n", Lossless: true},
		{Target: "json", Device: json.RawMessage(`{"name":"d"}`), Notes: []string{"n1", "n2"}},
		{Target: "json", Device: json.RawMessage(`null`)},
	}
	for _, v := range converts {
		check("convertResponse", appendConvertResponse(nil, &v), &v)
	}

	pnrs := []pnrResponse{
		{},
		{Device: json.RawMessage(`{"name":"d"}`), Seed: 18446744073709551615, Placer: "anneal", Router: "astar",
			Place: placeSummary{HPWL: -5, Area: 1 << 40, Overlaps: 3, Placed: 7},
			Route: routeSummary{Routed: 9, Total: 10, Completion: 0.9, Length: 12345, Expansions: 88, Rounds: 2}},
	}
	for _, v := range pnrs {
		got, err := appendPNRResponse(nil, &v)
		if err != nil {
			t.Fatalf("appendPNRResponse: %v", err)
		}
		check("pnrResponse", got, &v)
	}

	profiles := []stats.Profile{
		{},
		{Name: "aquaflex_3b", Class: "multiplexer", Layers: 3, Components: 40, Connections: 38,
			Ports: 12, Valves: 20, MultiSink: 2, AvgDegree: 1.9, MaxDegree: 5, Diameter: 11},
	}
	for _, v := range profiles {
		got, err := appendStatsProfile(nil, &v)
		if err != nil {
			t.Fatalf("appendStatsProfile: %v", err)
		}
		check("stats.Profile", got, &v)
	}
}

// TestCacheKeyMatchesLegacy pins the single-pass key derivation against
// the formula it replaced: cache.Key over op, json.Marshal(req), the
// resolved seed, and (multi-replica pnr/render only) the replica count.
// Stored entries and journaled job addresses must survive the refactor.
func TestCacheKeyMatchesLegacy(t *testing.T) {
	s := New(Config{Workers: 2, BaseSeed: BaseSeedDefault, Replicas: 3})
	legacy := func(op string, req *request) string {
		canon, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		seed := req.Seed
		if seed == 0 {
			seed = par.DeriveSeed(s.cfg.BaseSeed, req.Bench)
		}
		var sb [8]byte
		binary.LittleEndian.PutUint64(sb[:], seed)
		if n := s.replicas(req); n > 1 && (op == opPNR || op == opRender) {
			var rb [8]byte
			binary.LittleEndian.PutUint64(rb[:], uint64(n))
			return cache.Key([]byte(op), canon, sb[:], rb[:])
		}
		return cache.Key([]byte(op), canon, sb[:])
	}
	reqs := []request{
		{Bench: "rotary_pcr"},
		{Bench: "rotary_pcr", Seed: 99},
		{Device: json.RawMessage(`{"name":"d"}`), Placer: "anneal", Utilization: 0.4},
		{Text: "v1.1\nDEVICE d\n", Format: "mint", To: "json"},
		{Bench: "aquaflex_3b", Replicas: 1},
		{Bench: "aquaflex_3b", Replicas: 8},
	}
	for _, op := range []string{opValidate, opConvert, opPNR, opStats, opRender} {
		for i := range reqs {
			want := legacy(op, &reqs[i])
			got := s.cacheKey(op, &reqs[i])
			if got != want {
				t.Errorf("cacheKey(%s, %+v) = %s, legacy = %s", op, reqs[i], got, want)
			}
		}
	}
}

// TestGzipByteIdentity pins the compression middleware. On the streaming
// path (a cache-less server, plus endpoints outside the result cache),
// decompressing a gzip response yields exactly the identity response's
// bytes. On the cached path, every pipeline op in every cache state
// replays a stored encoding whose wire bytes equal a fresh BestSpeed
// compression of the identity body. ?pretty and error envelopes keep
// streaming and stay well-formed.
func TestGzipByteIdentity(t *testing.T) {
	h := newTestServer(2)
	cases := []struct {
		method, path, body string
	}{
		{"GET", "/healthz", ""},
		{"POST", "/v1/stats", `{"bench":"rotary_pcr"}`},
		{"POST", "/v1/validate", `{"bench":"aquaflex_3b"}`},
		{"GET", "/v1/bench?prefix=planar", ""},
	}
	for _, tc := range cases {
		plain := do(t, h, tc.method, tc.path, tc.body)
		if plain.Header().Get("Content-Encoding") != "" {
			t.Fatalf("%s: identity response claims an encoding", tc.path)
		}
		w := doGzip(t, h, tc.method, tc.path, tc.body)
		if !bytes.Equal(gunzip(t, w), plain.Body.Bytes()) {
			t.Errorf("%s: decompressed body differs from identity body", tc.path)
		}
	}

	t.Run("cached-ops", testGzipCachedOps)
	t.Run("pretty", func(t *testing.T) {
		_, h := newCachedServer(t, Config{Workers: 2})
		const body = `{"bench":"rotary_pcr"}`
		for range 2 { // miss, then hit: pretty never replays the stored encoding
			w := doGzip(t, h, "POST", "/v1/stats?pretty=1", body)
			want, err := indentEntry(do(t, h, "POST", "/v1/stats", body).Body.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if got := gunzip(t, w); !bytes.Equal(got, want) {
				t.Errorf("pretty gzip body is not the indented body:\n%s\nvs\n%s", got, want)
			}
		}
	})
	t.Run("error-envelope", func(t *testing.T) {
		_, h := newCachedServer(t, Config{Workers: 2})
		w := doGzip(t, h, "POST", "/v1/stats", `{"bench":"no_such_bench"}`)
		if w.Code != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", w.Code)
		}
		var eb struct {
			Error     string `json:"error"`
			Code      string `json:"code"`
			RequestID string `json:"request_id"`
		}
		raw := gunzip(t, w)
		if err := json.Unmarshal(raw, &eb); err != nil {
			t.Fatalf("gzip error body is not JSON: %v\n%s", err, raw)
		}
		if eb.Code != "not-found" || eb.Error == "" || eb.RequestID != w.Header().Get("X-Request-Id") {
			t.Errorf("malformed error envelope under gzip: %s", raw)
		}
	})
}

// gzipOpCases are the five pipeline ops, each with a body whose result is
// cached and whose identity response the gzip variants must reproduce.
var gzipOpCases = []struct {
	op, path, body string
}{
	{opValidate, "/v1/validate", `{"bench":"rotary_pcr"}`},
	{opStats, "/v1/stats", `{"bench":"aquaflex_3b"}`},
	{opConvert, "/v1/convert", `{"bench":"aquaflex_3b","to":"mint"}`},
	{opPNR, "/v1/pnr", `{"bench":"rotary_pcr","placer":"greedy"}`},
	{opRender, "/v1/render.svg", `{"bench":"rotary_pcr"}`},
}

// testGzipCachedOps walks each op through the miss, hit, and coalesced
// states, plus a hit whose gzip encoding is not yet stored.
func testGzipCachedOps(t *testing.T) {
	ref := newTestServer(2)
	for _, tc := range gzipOpCases {
		plain := do(t, ref, "POST", tc.path, tc.body)
		if plain.Code != http.StatusOK {
			t.Fatalf("%s: identity status = %d: %s", tc.path, plain.Code, plain.Body)
		}
		identity := plain.Body.Bytes()
		want := bestSpeed(t, identity)
		check := func(state string, w *httptest.ResponseRecorder) {
			t.Helper()
			if w.Code != http.StatusOK {
				t.Fatalf("%s %s: status = %d", tc.path, state, w.Code)
			}
			if got := w.Header().Get(cacheHeader); got != state {
				t.Errorf("%s: %s = %q, want %q", tc.path, cacheHeader, got, state)
			}
			if got := w.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
				t.Errorf("%s %s: Content-Length = %q, want %d", tc.path, state, got, len(want))
			}
			if got := w.Header().Get("Content-Type"); got != plain.Header().Get("Content-Type") {
				t.Errorf("%s %s: Content-Type = %q, want %q", tc.path, state, got, plain.Header().Get("Content-Type"))
			}
			if !bytes.Equal(w.Body.Bytes(), want) {
				t.Errorf("%s %s: gzip wire bytes differ from BestSpeed of the identity body", tc.path, state)
			}
		}

		// Miss, then hit on both the result and its stored encoding.
		_, h := newCachedServer(t, Config{Workers: 2})
		check("miss", doGzip(t, h, "POST", tc.path, tc.body))
		check("hit", doGzip(t, h, "POST", tc.path, tc.body))
		if got := do(t, h, "POST", tc.path, tc.body).Body.Bytes(); !bytes.Equal(got, identity) {
			t.Errorf("%s: identity hit differs after gzip requests", tc.path)
		}

		// A hit whose encoding has never been stored.
		_, h = newCachedServer(t, Config{Workers: 2})
		do(t, h, "POST", tc.path, tc.body)
		check("hit", doGzip(t, h, "POST", tc.path, tc.body))

		// Coalesced: a gzip request that joins an in-flight computation.
		check("coalesced", coalescedGzip(t, tc.op, tc.path, tc.body,
			cache.Entry{ContentType: plain.Header().Get("Content-Type"), Body: identity}))
	}
}

// coalescedGzip issues a gzip request that coalesces onto an in-flight
// computation of its own key, which the test holds open and then
// completes with ent, and returns the request's response.
func coalescedGzip(t *testing.T, op, path, body string, ent cache.Entry) *httptest.ResponseRecorder {
	t.Helper()
	s, h := newCachedServer(t, Config{Workers: 2})
	var req request
	if err := parseRequest([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	release, leader := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	defer func() { <-leader }()
	defer releaseOnce.Do(func() { close(release) })
	go func() {
		defer close(leader)
		s.cache.Do(context.Background(), s.cacheKey(op, &req), func() (cache.Entry, error) {
			<-release
			return ent, nil
		})
	}()
	waitUntil(t, func() bool { return s.cache.Stats().Misses == 1 })
	resp := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		r := httptest.NewRequest("POST", path, strings.NewReader(body))
		r.Header.Set("Accept-Encoding", "gzip")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		resp <- w
	}()
	waitUntil(t, func() bool { return s.cache.Stats().Coalesced == 1 })
	releaseOnce.Do(func() { close(release) })
	return <-resp
}

// doGzip issues a request offering gzip and checks the response is
// labeled as compressed.
func doGzip(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	r.Header.Set("Accept-Encoding", "gzip, deflate")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if got := w.Header().Get("Content-Encoding"); got != "gzip" {
		t.Fatalf("%s: Content-Encoding = %q, want gzip", path, got)
	}
	if got := w.Header().Get("Vary"); got != "Accept-Encoding" {
		t.Errorf("%s: Vary = %q, want Accept-Encoding", path, got)
	}
	return w
}

// gunzip decompresses a recorded gzip response body.
func gunzip(t *testing.T, w *httptest.ResponseRecorder) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatalf("gzip reader: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	return raw
}

// bestSpeed is the reference encoding: a fresh BestSpeed writer fed the
// whole body in one Write.
func bestSpeed(t *testing.T, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitUntil polls cond until it holds, failing the test after 10s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGzipRefusedQualityZero(t *testing.T) {
	h := newTestServer(2)
	r := httptest.NewRequest("GET", "/healthz", nil)
	r.Header.Set("Accept-Encoding", "gzip;q=0")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if got := w.Header().Get("Content-Encoding"); got != "" {
		t.Errorf("Content-Encoding = %q with q=0, want identity", got)
	}
}

// TestAcceptsGzipNegotiation pins RFC 9110 §12.5.3 precedence: an
// explicit gzip member decides wherever it appears, "*" only stands in
// for an unnamed gzip, and q is found among any number of parameters.
func TestAcceptsGzipNegotiation(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{"", false},
		{"gzip", true},
		{"GZIP", true},
		{"deflate, gzip", true},
		{"identity", false},
		{"br, deflate", false},
		{"*", true},
		{"*;q=0", false},
		{"gzip;q=0", false},
		{"gzip; q=0.000", false},
		{"gzip;Q=0", false},
		{"gzip;q=0.5", true},
		{"gzip;q=1.0", true},
		{"*;q=0, gzip", true},
		{"gzip, *;q=0", true},
		{"gzip;q=0, *", false},
		{"*, gzip;q=0", false},
		{"gzip;x=1;q=0", false},
		{"gzip;x=1;q=0.3", true},
		{"gzip;x=1", true},
		{"gzip;q=abc", true},
		{"deflate;q=0, *;q=0.1", true},
		{" gzip ; q = 0 ", false},
	} {
		r := httptest.NewRequest("GET", "/", nil)
		if tc.header != "" {
			r.Header.Set("Accept-Encoding", tc.header)
		}
		if got := acceptsGzip(r); got != tc.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// TestPrettyRestoresIndentedBody pins the ?pretty=1 opt-in: the pretty
// rendering of a compact body is exactly json.MarshalIndent of the same
// value — the bytes every response carried before compact became the
// default.
func TestPrettyRestoresIndentedBody(t *testing.T) {
	h := newTestServer(2)
	paths := []struct {
		method, plain, pretty, body string
	}{
		{"POST", "/v1/stats", "/v1/stats?pretty=1", `{"bench":"rotary_pcr"}`},
		{"POST", "/v1/validate", "/v1/validate?pretty=1", `{"bench":"rotary_pcr"}`},
		{"GET", "/healthz", "/healthz?pretty=1", ""},
		{"GET", "/v1/bench", "/v1/bench?pretty", ""},
		{"GET", "/v1/bench/rotary_pcr", "/v1/bench/rotary_pcr?pretty=true", ""},
	}
	for _, tc := range paths {
		compact := do(t, h, tc.method, tc.plain, tc.body)
		pretty := do(t, h, tc.method, tc.pretty, tc.body)
		if compact.Code != http.StatusOK || pretty.Code != http.StatusOK {
			t.Fatalf("%s: status = %d/%d", tc.plain, compact.Code, pretty.Code)
		}
		var buf bytes.Buffer
		if err := json.Indent(&buf, bytes.TrimRight(compact.Body.Bytes(), "\n"), "", "  "); err != nil {
			t.Fatalf("%s: indent: %v", tc.plain, err)
		}
		buf.WriteByte('\n')
		if !bytes.Equal(pretty.Body.Bytes(), buf.Bytes()) {
			t.Errorf("%s: pretty body is not the indented compact body:\n%s\nvs\n%s",
				tc.pretty, pretty.Body.Bytes(), buf.Bytes())
		}
		// Healthz uptime can tick between the two requests; everything else
		// must be the same document.
		if tc.plain == "/healthz" {
			continue
		}
	}
}

// TestWarmServeAllocs is the allocation guard on the serving hot path: a
// warm-cache request must stay within a pinned allocation budget, so a
// regression that reintroduces per-request garbage fails loudly instead
// of surfacing as a benchmark drift months later.
// allocHarness is the allocation-free request loop the guard measures
// through: a reused request with a resettable body and a discarding
// writer, mirroring the cmd/parchmint-perf serve harness, so the counted
// allocations belong to the serving path rather than test scaffolding.
type allocDiscardWriter struct {
	h      http.Header
	status int
}

func (w *allocDiscardWriter) Header() http.Header         { return w.h }
func (w *allocDiscardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *allocDiscardWriter) WriteHeader(code int)        { w.status = code }

type allocReusableBody struct{ bytes.Reader }

func (*allocReusableBody) Close() error { return nil }

func TestWarmServeAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	h := New(Config{Workers: 2, BaseSeed: BaseSeedDefault, CacheBytes: 1 << 20}).Handler()
	body := []byte(`{"bench":"rotary_pcr"}`)
	// The gzip case replays the stored encoding; its one extra allocation
	// is the Content-Length header (two once the length passes 99).
	for _, acceptEncoding := range []string{"", "gzip"} {
		req, err := http.NewRequest("POST", "http://perf.local/v1/validate", nil)
		if err != nil {
			t.Fatal(err)
		}
		if acceptEncoding != "" {
			req.Header.Set("Accept-Encoding", acceptEncoding)
		}
		rb := &allocReusableBody{}
		w := &allocDiscardWriter{h: make(http.Header)}
		run := func() {
			rb.Reset(body)
			req.Body = rb
			w.status = 0
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				t.Fatalf("status = %d", w.status)
			}
		}
		// Warm the cache, the pools, and the lazily materialized metric cells.
		for range 16 {
			run()
		}
		avg := testing.AllocsPerRun(200, run)
		t.Logf("warm /v1/validate (Accept-Encoding %q): %.1f allocs per request", acceptEncoding, avg)
		// The measured warm path sits at 14 allocations: the timeout
		// context machinery, the request ID and traceparent with their
		// header slices, the root span, the request-context clone, the
		// flight record, and the cache key string. The ceiling leaves slack
		// for toolchain drift while still failing loudly if per-request
		// decode/encode garbage creeps back in.
		const ceiling = 16
		if avg > ceiling {
			t.Errorf("warm /v1/validate (Accept-Encoding %q) allocates %.1f per request, ceiling %d",
				acceptEncoding, avg, ceiling)
		}
	}
}
