package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/mint"
	"repro/internal/serve"
)

// The serve kernel family measures the HTTP serving tier end to end:
// one full request→response cycle through the service handler, with the
// response body discarded. "warm" kernels run against a pre-warmed
// content-addressed cache — the dominant regime for repeated traffic,
// where the JSON codec and middleware are the entire cost. "cold"
// kernels run with the cache disabled, so every request pays the full
// pipeline computation. The numbers land in BENCH_serve.json with the
// same before/after baseline discipline as BENCH_pnr.json. "warm+gzip"
// kernels are warm kernels whose client offers Accept-Encoding: gzip, so
// they add the compression path to the cached replay. The "inline"
// kernels post the largest bodies of loadbench's inline_parse workload
// warm, so they measure what every inline cache hit pays: body read,
// envelope decode, cache key and replay.

// serveCase is one measured endpoint/body/cache-regime combination.
type serveCase struct {
	name  string
	path  string
	body  string
	warm  bool
	gzip  bool
	iters int
}

var serveCases = []serveCase{
	{"serve/validate/rotary_pcr/warm", "/v1/validate", `{"bench":"rotary_pcr"}`, true, false, 20000},
	{"serve/validate/rotary_pcr/warm+gzip", "/v1/validate", `{"bench":"rotary_pcr"}`, true, true, 20000},
	{"serve/validate/rotary_pcr/cold", "/v1/validate", `{"bench":"rotary_pcr"}`, false, false, 200},
	{"serve/stats/aquaflex_3b/warm", "/v1/stats", `{"bench":"aquaflex_3b"}`, true, false, 20000},
	{"serve/stats/aquaflex_3b/warm+gzip", "/v1/stats", `{"bench":"aquaflex_3b"}`, true, true, 20000},
	{"serve/stats/aquaflex_3b/cold", "/v1/stats", `{"bench":"aquaflex_3b"}`, false, false, 200},
	{"serve/pnr/rotary_pcr/warm", "/v1/pnr", `{"bench":"rotary_pcr","placer":"greedy"}`, true, false, 20000},
	{"serve/pnr/rotary_pcr/warm+gzip", "/v1/pnr", `{"bench":"rotary_pcr","placer":"greedy"}`, true, true, 20000},
	{"serve/pnr/rotary_pcr/cold", "/v1/pnr", `{"bench":"rotary_pcr","placer":"greedy"}`, false, false, 20},
	{"serve/convert/aquaflex_3b/warm", "/v1/convert", `{"bench":"aquaflex_3b","to":"mint"}`, true, false, 20000},
	{"serve/convert/aquaflex_3b/warm+gzip", "/v1/convert", `{"bench":"aquaflex_3b","to":"mint"}`, true, true, 20000},
}

// inlineCases are the warm validate kernels over the largest inline_parse
// bodies: the 1280-component sweep device (bench.Sweep(10, 8, 2018)) as
// inline ParchMint JSON (about 454 KiB) and as MINT text (about 138 KiB),
// encoded exactly as loadbench/workload.go encodes them.
func inlineCases() []serveCase {
	sweep := bench.Sweep(10, 8, 2018)
	sp := sweep[len(sweep)-1]
	js, err := core.MarshalCanonical(sp.Device)
	if err != nil {
		cli.Fatalf("parchmint-perf: %v", err)
	}
	f, _, err := mint.FromDevice(sp.Device)
	if err != nil {
		cli.Fatalf("parchmint-perf: %v", err)
	}
	txt, err := json.Marshal(struct {
		Text   string `json:"text"`
		Format string `json:"format"`
	}{mint.Print(f), "mint"})
	if err != nil {
		cli.Fatalf("parchmint-perf: %v", err)
	}
	return []serveCase{
		{"serve/validate/inline/" + sp.Name + ".json/warm", "/v1/validate", `{"device":` + string(js) + `}`, true, false, 1000},
		{"serve/validate/inline/" + sp.Name + ".mint/warm", "/v1/validate", string(txt), true, false, 2000},
	}
}

// discardWriter is the minimal ResponseWriter: headers land in one reused
// map and bodies are dropped, so the harness contributes the same small
// fixed overhead to every kernel instead of an httptest recorder's
// buffering.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// reusableBody is an io.ReadCloser over a resettable bytes.Reader, so the
// per-request body costs no allocation in the measurement loop.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

var _ io.ReadCloser = (*reusableBody)(nil)

// serveKernels builds the request→response kernels. Warm kernels share
// one cache-enabled server (each endpoint's entry is materialized by the
// measure warm-up call before its window opens); cold kernels share one
// cache-disabled server.
func serveKernels() []kernel {
	warmSrv := serve.New(serve.Config{Workers: 2, BaseSeed: serve.BaseSeedDefault,
		CacheBytes: 64 << 20, TraceEvents: 256})
	coldSrv := serve.New(serve.Config{Workers: 2, BaseSeed: serve.BaseSeedDefault,
		TraceEvents: 256})
	warm, cold := warmSrv.Handler(), coldSrv.Handler()

	var ks []kernel
	for _, c := range append(serveCases, inlineCases()...) {
		c := c
		h := cold
		if c.warm {
			h = warm
		}
		body := []byte(c.body)
		req, err := http.NewRequest("POST", "http://perf.local"+c.path, nil)
		if err != nil {
			cli.Fatalf("parchmint-perf: %v", err)
		}
		if c.gzip {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		rb := &reusableBody{}
		w := &discardWriter{h: make(http.Header)}
		ks = append(ks, kernel{
			name:  c.name,
			iters: c.iters,
			fn: func() map[string]float64 {
				rb.Reset(body)
				req.Body = rb
				h.ServeHTTP(w, req)
				return nil
			},
		})
	}
	return ks
}
