package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Registry is the shared metrics registry: named families of counters,
// gauges, and fixed-bucket histograms, rendered in the Prometheus text
// exposition format. Registration is idempotent (re-registering a name
// returns the existing instrument) and rendering is deterministic:
// families appear in registration order, series in sorted label order, so
// scrapes are stable byte-for-byte for a given state.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	hooks    []func()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one named metric with a fixed label-key schema.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels []string

	mu     sync.Mutex
	series map[string]*series
	order  []string // series keys in first-seen order (sorted at render)

	gaugeFn func() float64 // callback gauges (workers, inflight, uptime)
	buckets []float64      // histogram upper bounds, ascending
}

// series is one label-value combination's state.
type series struct {
	labelValues []string
	value       float64    // counter/gauge value, histogram sum
	count       uint64     // histogram observation count
	bucketN     []uint64   // cumulative per-bucket counts (histograms)
	exem        []exemplar // per-bucket exemplars, lazily allocated
}

// exemplar links one recent observation in a histogram bucket to the
// trace that produced it — the OpenMetrics mechanism for jumping from a
// latency bucket to a concrete request. The newest observation wins;
// sampling fairness is not a goal, recency is.
type exemplar struct {
	traceID string
	value   float64
	ts      float64 // unix seconds
}

// DefLatencyBuckets are the fixed latency histogram bounds, in seconds:
// 1ms to 60s, the span from a cached validation to a worst-case PnR.
var DefLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// register returns the named family, creating it on first use and
// panicking on a type or label-schema mismatch — that is always a
// programming error, caught by the first scrape test.
func (r *Registry) register(name, help, typ string, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ,
		labels: append([]string(nil), labels...), series: make(map[string]*series)}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// Counter registers (or fetches) a monotonically increasing metric.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return &Counter{f: r.register(name, help, "counter", labels)}
}

// Gauge registers (or fetches) a settable metric.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return &Gauge{f: r.register(name, help, "gauge", labels)}
}

// GaugeFunc registers a label-less gauge whose value is read from fn at
// scrape time — for values another component already owns (gate workers,
// in-flight count, uptime).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge", nil)
	f.mu.Lock()
	f.gaugeFn = fn
	f.mu.Unlock()
}

// Histogram registers (or fetches) a fixed-bucket distribution metric.
// buckets must be ascending upper bounds; nil selects DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	f := r.register(name, help, "histogram", labels)
	f.mu.Lock()
	if f.buckets == nil {
		f.buckets = append([]float64(nil), buckets...)
	}
	f.mu.Unlock()
	return &Histogram{f: f}
}

// get returns the series for the label values, creating it on first use.
// Caller holds f.mu.
func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q called with %d label values, schema has %d",
			f.name, len(labelValues), len(f.labels)))
	}
	key := strings.Join(labelValues, "\xff")
	s, ok := f.series[key]
	if !ok {
		s = &series{labelValues: append([]string(nil), labelValues...)}
		if f.typ == "histogram" {
			s.bucketN = make([]uint64, len(f.buckets))
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter is a monotonically increasing metric handle.
type Counter struct{ f *family }

// Add increases the series selected by labelValues by v (v >= 0).
func (c *Counter) Add(v float64, labelValues ...string) {
	c.f.mu.Lock()
	c.f.get(labelValues).value += v
	c.f.mu.Unlock()
}

// Inc increases the series by one.
func (c *Counter) Inc(labelValues ...string) { c.Add(1, labelValues...) }

// Value reads the series' current value (0 when never written).
func (c *Counter) Value(labelValues ...string) float64 {
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	return c.f.get(labelValues).value
}

// Gauge is a settable metric handle.
type Gauge struct{ f *family }

// Set stores v into the series selected by labelValues.
func (g *Gauge) Set(v float64, labelValues ...string) {
	g.f.mu.Lock()
	g.f.get(labelValues).value = v
	g.f.mu.Unlock()
}

// Value reads the series' current value (0 when never written).
func (g *Gauge) Value(labelValues ...string) float64 {
	g.f.mu.Lock()
	defer g.f.mu.Unlock()
	return g.f.get(labelValues).value
}

// Histogram is a fixed-bucket distribution handle.
type Histogram struct{ f *family }

// Observe records v into the series selected by labelValues.
func (h *Histogram) Observe(v float64, labelValues ...string) {
	h.f.mu.Lock()
	h.f.observe(h.f.get(labelValues), v, "")
	h.f.mu.Unlock()
}

// ObserveWithExemplar records v and remembers traceID as the exemplar of
// the bucket v lands in; an empty traceID degrades to a plain Observe.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string, labelValues ...string) {
	h.f.mu.Lock()
	h.f.observe(h.f.get(labelValues), v, traceID)
	h.f.mu.Unlock()
}

// observe applies one histogram observation; caller holds f.mu. The
// exemplar lands in the lowest bucket containing v (the one whose count
// the observation is attributed to in a non-cumulative reading); the
// exemplar slice is allocated once per series on the first exemplar, so
// the traceID=="" hot path allocates nothing.
func (f *family) observe(s *series, v float64, traceID string) {
	s.value += v
	s.count++
	slot := len(f.buckets) // the +Inf slot
	for i, ub := range f.buckets {
		if v <= ub {
			s.bucketN[i]++
			if i < slot {
				slot = i
			}
		}
	}
	if traceID != "" {
		if s.exem == nil {
			s.exem = make([]exemplar, len(f.buckets)+1)
		}
		s.exem[slot] = exemplar{
			traceID: traceID,
			value:   v,
			ts:      float64(time.Now().UnixMilli()) / 1000,
		}
	}
}

// OnScrape registers fn to run at the start of every exposition
// (WritePrometheus or WriteOpenMetrics), before any family renders —
// the hook point for values sampled lazily at scrape time, like the
// runtime/metrics bridge. Hooks must not register new metrics.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// snapshot runs the scrape hooks and returns the family list.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	return families
}

// WritePrometheus renders every family in the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) {
	var sb strings.Builder
	for _, f := range r.snapshot() {
		f.render(&sb)
	}
	_, _ = io.WriteString(w, sb.String())
}

// WriteOpenMetrics renders every family in the OpenMetrics text format:
// counter families announce their name without the `_total` suffix,
// histogram buckets carry `# {trace_id="..."} value timestamp` exemplar
// annotations when one was recorded, and the exposition ends with the
// mandatory `# EOF` marker. Gauges and the sample lines themselves are
// byte-compatible with the Prometheus rendering, so the two modes never
// disagree on values — only on annotations.
func (r *Registry) WriteOpenMetrics(w io.Writer) {
	var sb strings.Builder
	for _, f := range r.snapshot() {
		f.renderOpenMetrics(&sb)
	}
	sb.WriteString("# EOF\n")
	_, _ = io.WriteString(w, sb.String())
}

func (f *family) renderOpenMetrics(sb *strings.Builder) {
	f.mu.Lock()
	defer f.mu.Unlock()
	// OpenMetrics names a counter family without the `_total` suffix its
	// sample lines carry. A counter not following the convention keeps
	// its name untouched rather than inventing a new series name.
	omName := f.name
	if f.typ == "counter" {
		omName = strings.TrimSuffix(f.name, "_total")
	}
	fmt.Fprintf(sb, "# HELP %s %s\n", omName, f.help)
	fmt.Fprintf(sb, "# TYPE %s %s\n", omName, f.typ)
	if f.gaugeFn != nil {
		fmt.Fprintf(sb, "%s %s\n", f.name, formatValue(f.gaugeFn()))
		return
	}
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	for _, key := range keys {
		s := f.series[key]
		if f.typ == "histogram" {
			f.renderHistogramOM(sb, s)
			continue
		}
		fmt.Fprintf(sb, "%s%s %s\n", f.name, f.labelPairs(s.labelValues, "", ""), formatValue(s.value))
	}
}

func (f *family) renderHistogramOM(sb *strings.Builder, s *series) {
	for i := 0; i <= len(f.buckets); i++ {
		le := "+Inf"
		n := s.count
		if i < len(f.buckets) {
			le = strconv.FormatFloat(f.buckets[i], 'g', -1, 64)
			n = s.bucketN[i]
		}
		fmt.Fprintf(sb, "%s_bucket%s %d", f.name, f.labelPairs(s.labelValues, "le", le), n)
		if s.exem != nil && s.exem[i].traceID != "" {
			e := s.exem[i]
			fmt.Fprintf(sb, " # {trace_id=%q} %s %s",
				e.traceID, formatValue(e.value), strconv.FormatFloat(e.ts, 'f', 3, 64))
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(sb, "%s_sum%s %s\n", f.name, f.labelPairs(s.labelValues, "", ""), formatValue(s.value))
	fmt.Fprintf(sb, "%s_count%s %d\n", f.name, f.labelPairs(s.labelValues, "", ""), s.count)
}

func (f *family) render(sb *strings.Builder) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fmt.Fprintf(sb, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(sb, "# TYPE %s %s\n", f.name, f.typ)
	if f.gaugeFn != nil {
		fmt.Fprintf(sb, "%s %s\n", f.name, formatValue(f.gaugeFn()))
		return
	}
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	for _, key := range keys {
		s := f.series[key]
		if f.typ == "histogram" {
			f.renderHistogram(sb, s)
			continue
		}
		fmt.Fprintf(sb, "%s%s %s\n", f.name, f.labelPairs(s.labelValues, "", ""), formatValue(s.value))
	}
}

func (f *family) renderHistogram(sb *strings.Builder, s *series) {
	for i, ub := range f.buckets {
		fmt.Fprintf(sb, "%s_bucket%s %d\n", f.name,
			f.labelPairs(s.labelValues, "le", strconv.FormatFloat(ub, 'g', -1, 64)), s.bucketN[i])
	}
	fmt.Fprintf(sb, "%s_bucket%s %d\n", f.name, f.labelPairs(s.labelValues, "le", "+Inf"), s.count)
	fmt.Fprintf(sb, "%s_sum%s %s\n", f.name, f.labelPairs(s.labelValues, "", ""), formatValue(s.value))
	fmt.Fprintf(sb, "%s_count%s %d\n", f.name, f.labelPairs(s.labelValues, "", ""), s.count)
}

// labelPairs renders {k="v",...} for the schema's keys plus an optional
// extra pair (the histogram "le" bound); "" for a label-less series.
func (f *family) labelPairs(values []string, extraKey, extraVal string) string {
	if len(f.labels) == 0 && extraKey == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range f.labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, values[i])
	}
	if extraKey != "" {
		if len(f.labels) > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", extraKey, extraVal)
	}
	sb.WriteByte('}')
	return sb.String()
}

// formatValue renders whole numbers without a fractional part (counts
// read as "3", matching the hand-rolled exporter this registry replaced)
// and everything else with microsecond precision (latency seconds).
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 6, 64)
}
