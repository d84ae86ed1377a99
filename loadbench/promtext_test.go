package main

import (
	"math"
	"testing"
)

const metricsBefore = `# HELP parchmint_requests_total Requests served, by endpoint and status.
# TYPE parchmint_requests_total counter
parchmint_requests_total{endpoint="pnr",status="200"} 3
parchmint_requests_total{endpoint="stats",status="200"} 10
parchmint_cache_requests_total{endpoint="stats",outcome="hit"} 8
parchmint_cache_requests_total{endpoint="stats",outcome="miss"} 2
parchmint_request_duration_seconds_bucket{endpoint="stats",le="0.001"} 4
parchmint_request_duration_seconds_bucket{endpoint="stats",le="0.01"} 10
parchmint_request_duration_seconds_bucket{endpoint="stats",le="+Inf"} 10
parchmint_request_duration_seconds_sum{endpoint="stats"} 0.02
parchmint_request_duration_seconds_count{endpoint="stats"} 10
parchmint_go_gc_pause_seconds{q="p99"} 0.0002
parchmint_build_info{version="",go_version="go1.24.0",vcs_revision="a\"b"} 1
parchmint_queue_waiting 0
`

const metricsAfter = `# HELP parchmint_requests_total Requests served, by endpoint and status.
parchmint_requests_total{endpoint="pnr",status="200"} 5
parchmint_requests_total{endpoint="stats",status="200"} 110
parchmint_cache_requests_total{endpoint="stats",outcome="hit"} 98
parchmint_cache_requests_total{endpoint="stats",outcome="miss"} 12
parchmint_request_duration_seconds_bucket{endpoint="stats",le="0.001"} 54
parchmint_request_duration_seconds_bucket{endpoint="stats",le="0.01"} 100
parchmint_request_duration_seconds_bucket{endpoint="stats",le="+Inf"} 110
parchmint_request_duration_seconds_bucket{endpoint="pnr",le="0.001"} 0
parchmint_request_duration_seconds_bucket{endpoint="pnr",le="0.01"} 0
parchmint_request_duration_seconds_bucket{endpoint="pnr",le="+Inf"} 2
parchmint_go_gc_pause_seconds{q="p99"} 0.0003
parchmint_build_info{version="",go_version="go1.24.0",vcs_revision="a\"b"} 1
parchmint_queue_waiting 2
`

func mustParse(t *testing.T, text string) scrape {
	t.Helper()
	sc, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestCounterDeltas(t *testing.T) {
	before, after := mustParse(t, metricsBefore), mustParse(t, metricsAfter)
	for _, c := range []struct {
		name string
		want map[string]string
		d    float64
	}{
		{"parchmint_requests_total", nil, 102},
		{"parchmint_requests_total", map[string]string{"endpoint": "pnr"}, 2},
		{"parchmint_cache_requests_total", map[string]string{"outcome": "hit"}, 90},
		{"parchmint_cache_requests_total", map[string]string{"outcome": "coalesced"}, 0},
		{"parchmint_absent_total", nil, 0},
	} {
		if got := delta(before, after, c.name, c.want); got != c.d {
			t.Errorf("delta %s%v = %v, want %v", c.name, c.want, got, c.d)
		}
	}
	if got := after.sum("parchmint_go_gc_pause_seconds", map[string]string{"q": "p99"}); got != 0.0003 {
		t.Errorf("gauge = %v", got)
	}
	if got := after.sum("parchmint_queue_waiting", nil); got != 2 {
		t.Errorf("unlabelled gauge = %v", got)
	}
	for _, s := range after {
		if s.name == "parchmint_build_info" && s.labels["vcs_revision"] != `a"b` {
			t.Errorf("escaped label value parsed as %q", s.labels["vcs_revision"])
		}
	}
}

func TestHistogramQuantileFromBucketDelta(t *testing.T) {
	before, after := mustParse(t, metricsBefore), mustParse(t, metricsAfter)
	stats := func(l map[string]string) bool { return l["endpoint"] == "stats" }
	// The stats delta: 50 at or below 1 ms, 40 in (1 ms, 10 ms], 10 above.
	b := bucketDelta(before, after, "parchmint_request_duration_seconds", stats)
	for _, c := range []struct{ q, want float64 }{
		{0.25, 0.0005},               // rank 25 of the 50 in the first bucket
		{0.5, 0.001},                 // rank 50, the first bucket's upper edge
		{0.7, 0.001 + 0.009*20.0/40}, // rank 70, half way through the second
		{0.95, 0.01},                 // rank 95 lands in +Inf: highest finite bound
	} {
		if got := bucketQuantile(c.q, b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("q%.2f = %v, want %v", c.q, got, c.want)
		}
	}
	// Every endpoint: the two new pnr observations sit above 10 ms.
	all := bucketDelta(before, after, "parchmint_request_duration_seconds", nil)
	if got := all[math.Inf(1)]; got != 102 {
		t.Errorf("+Inf delta over all endpoints = %v, want 102", got)
	}
	if got := bucketQuantile(0.5, map[float64]float64{}); !math.IsNaN(got) {
		t.Errorf("empty histogram quantile = %v, want NaN", got)
	}
}

func TestParseRejectsMalformedLines(t *testing.T) {
	for _, bad := range []string{"novalue", `x{a="1"`, `x{a=1} 2`, "x{} notanumber"} {
		if _, err := parseProm(bad + "\n"); err == nil {
			t.Errorf("parsed %q", bad)
		}
	}
}
