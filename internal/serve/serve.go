// Package serve exposes the whole ParchMint pipeline — validation, MINT
// conversion, place-and-route, characterization, and SVG rendering — as a
// concurrent HTTP JSON service. Handlers consume the same public pipeline
// API as the command-line tools (cli.Load, pnr.RunContext, stats, render),
// admission is bounded by a worker gate with optional load shedding, and
// seeds follow par's determinism contract: identical request bodies
// produce byte-identical responses at any worker count. That contract is
// what makes the content-addressed result cache safe: a stored response is
// indistinguishable from a recomputed one. Telemetry — spans into a ring
// buffer served at /debug/trace, metrics on the shared obs.Registry at
// /metrics, structured request logs with propagated request IDs — is
// out-of-band and never feeds the computation.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/par"
)

// Config tunes the service.
type Config struct {
	// Workers bounds concurrent pipeline computations; <1 means NumCPU.
	Workers int
	// BaseSeed is the base of the per-device seed derivation: a request
	// without an explicit seed runs with DeriveSeed(BaseSeed, deviceName).
	BaseSeed uint64
	// MaxBodyBytes caps request bodies; 0 means 8 MiB.
	MaxBodyBytes int64
	// RequestTimeout bounds each request's pipeline work; 0 means 60s.
	RequestTimeout time.Duration
	// Logger receives one structured record per finished request; nil
	// disables request logging.
	Logger *slog.Logger
	// TraceEvents caps the span ring buffer served at /debug/trace; 0
	// selects obs.DefaultTraceEvents.
	TraceEvents int
	// CacheBytes bounds the content-addressed result cache; 0 disables
	// caching entirely.
	CacheBytes int64
	// QueueDepth bounds how many requests may wait for a worker slot
	// before admission sheds with 429; 0 means unbounded (never shed on
	// queue depth).
	QueueDepth int
	// Replicas is the default parallel-tempering replica count for pnr
	// (and render-triggered pnr) requests; a request's explicit
	// "replicas" field overrides it. Values below 2 keep the classic
	// single-replica annealing schedule.
	Replicas int
	// Journal, when non-nil, makes job submissions durable: lifecycle
	// transitions append to it and New replays it, restoring completed
	// jobs (re-seeding the result cache) and re-enqueueing interrupted
	// ones. Nil keeps jobs in-memory only. The journal is owned by the
	// caller and not closed by the server.
	Journal *job.Journal
	// MaxJobs caps retained jobs (terminal ones are evicted oldest-first
	// past the cap); <1 selects the job store's default.
	MaxJobs int
	// JobTimeout bounds one job's execution (not its queue wait); 0 means
	// no limit — jobs exist precisely for work that outlives the request
	// timeout.
	JobTimeout time.Duration
	// JobHeartbeat is the SSE keep-alive comment interval; 0 means 15s.
	// Tests shorten it to observe disconnect handling quickly.
	JobHeartbeat time.Duration
	// FlightRequests caps the tail-sampled request flight recorder served
	// at /debug/requests; 0 selects obs.DefaultFlightRequests, negative
	// disables the recorder entirely.
	FlightRequests int
	// TraceSample is the probability an ordinary request — not an error,
	// not shed, not in the slow tail — is retained by the flight recorder;
	// 0 selects obs.DefaultTraceSample, negative means never. Errors, shed
	// requests, and the slowest-p99 tail are always kept regardless.
	TraceSample float64
	// Peers is the full cluster membership (absolute URLs, including
	// Self). Empty keeps the server single-node: the ring is never
	// consulted and responses are byte-identical to the peerless build.
	Peers []string
	// Self is this node's own peer address, exactly as it appears in
	// Peers. Required when Peers is non-empty.
	Self string
	// PeerHealthInterval is the per-peer health probe period; 0 selects
	// the cluster default (2s). Tests shorten it to observe failover.
	PeerHealthInterval time.Duration
	// PeerHedgeDelay is how long a peer cache probe waits before racing a
	// second attempt; 0 selects the cluster default (30ms).
	PeerHedgeDelay time.Duration
	// PeerTransport overrides the peer client's HTTP transport (tests);
	// nil selects http.DefaultTransport.
	PeerTransport http.RoundTripper
}

func (c Config) maxBody() int64 {
	if c.MaxBodyBytes <= 0 {
		return 8 << 20
	}
	return c.MaxBodyBytes
}

func (c Config) timeout() time.Duration {
	if c.RequestTimeout <= 0 {
		return 60 * time.Second
	}
	return c.RequestTimeout
}

func (c Config) jobHeartbeat() time.Duration {
	if c.JobHeartbeat <= 0 {
		return 15 * time.Second
	}
	return c.JobHeartbeat
}

func (c Config) traceSample() float64 {
	if c.TraceSample == 0 {
		return obs.DefaultTraceSample
	}
	if c.TraceSample < 0 {
		return 0
	}
	return c.TraceSample
}

// Server is the service state: configuration, the admission gate, the
// result cache, and the telemetry spine (registry, tracer, recorder)
// every request context carries.
type Server struct {
	cfg    Config
	gate   *gate
	budget *par.Budget
	// budgetVal is the budget boxed once, so the per-request context can
	// answer budget lookups without re-boxing.
	budgetVal any
	cache     *cache.Cache // nil when caching is disabled
	reg       *obs.Registry
	tracer    *obs.Tracer
	rec       *obs.Recorder
	flight    *obs.FlightRecorder // nil when the flight recorder is disabled
	start     time.Time
	ids       *obs.IDSource
	jobs      *job.Store
	cluster   *cluster.Cluster // nil when running single-node

	// Pre-resolved endpoint instruments.
	mRequests   *obs.Counter   // {endpoint, status}
	mLatency    *obs.Counter   // {endpoint}
	mErrors     *obs.Counter   // {endpoint}
	mStage      *obs.Counter   // {task, stage}
	mDuration   *obs.Histogram // {endpoint}
	mCacheReq   *obs.Counter   // {endpoint, outcome}
	mCacheEvict *obs.Counter
	mShed       *obs.Counter // {endpoint}

	// mCacheCells pre-binds every operation × outcome series of
	// mCacheReq, so the cached execution path records without the
	// variadic label join.
	mCacheCells map[string]*[3]*obs.CounterCell

	// Job lifecycle instruments, fed by the store's hooks.
	mJobsSubmitted *obs.Counter
	mJobsStarted   *obs.Counter
	mJobsCompleted *obs.Counter
	mJobsCanceled  *obs.Counter
	mJobsFailed    *obs.Counter
	mJobDur        *obs.Histogram // {status}

	// mJournalDropped surfaces unparseable journal lines skipped at boot,
	// so mid-file corruption is visible before a handoff replays from it.
	mJournalDropped *obs.Counter
	// mJournalAppend counts start, finish and cancel records the journal
	// failed to write; registered only with a journal.
	mJournalAppend *obs.Counter // {record}

	// mForwardFallback counts forwarding hops that failed and were
	// served locally instead; registered only with a cluster.
	mForwardFallback *obs.Counter // {reason}
}

// New builds a server; the zero Config selects all defaults.
func New(cfg Config) *Server {
	s := &Server{
		cfg:  cfg,
		gate: newGate(cfg.Workers, cfg.QueueDepth),
		// One process-wide CPU ledger for the solvers' nested parallelism
		// (replica annealing): admitted requests own
		// their goroutine; extra fan-out draws tokens from this budget, so
		// gate × solver parallelism can never oversubscribe the machine.
		budget: par.NewBudget(0),
		reg:    obs.NewRegistry(),
		tracer: obs.NewTracer(cfg.TraceEvents),
		start:  time.Now(),
		ids:    obs.NewIDSource(),
	}
	// Registration order is scrape order; the first six families keep the
	// names and order of the exporter this registry replaced, and the
	// cache/shed families append after them.
	s.mRequests = s.reg.Counter("parchmint_requests_total",
		"Requests served, by endpoint and status.", "endpoint", "status")
	s.mLatency = s.reg.Counter("parchmint_request_seconds_total",
		"Cumulative request wall time, by endpoint.", "endpoint")
	s.mErrors = s.reg.Counter("parchmint_errors_total",
		"Responses with status >= 400, by endpoint.", "endpoint")
	s.mStage = s.reg.Counter("parchmint_stage_seconds_total",
		"Cumulative pipeline stage wall time, by device task and stage.", "task", "stage")
	s.reg.GaugeFunc("parchmint_workers",
		"Admission limit of the pipeline worker gate.",
		func() float64 { return float64(s.gate.Workers()) })
	s.reg.GaugeFunc("parchmint_inflight",
		"Pipeline computations currently admitted.",
		func() float64 { return float64(s.gate.InFlight()) })
	s.mDuration = s.reg.Histogram("parchmint_request_duration_seconds",
		"Request latency distribution, by endpoint.", nil, "endpoint")
	s.mCacheReq = s.reg.Counter("parchmint_cache_requests_total",
		"Result cache lookups, by endpoint and outcome (hit, miss, coalesced).", "endpoint", "outcome")
	s.mCacheEvict = s.reg.Counter("parchmint_cache_evictions_total",
		"Result cache entries evicted to stay under the byte bound.")
	s.reg.GaugeFunc("parchmint_cache_bytes",
		"Bytes held by the result cache.",
		func() float64 {
			if s.cache == nil {
				return 0
			}
			return float64(s.cache.Stats().Bytes)
		})
	s.reg.GaugeFunc("parchmint_cache_entries",
		"Entries held by the result cache.",
		func() float64 {
			if s.cache == nil {
				return 0
			}
			return float64(s.cache.Stats().Entries)
		})
	s.mShed = s.reg.Counter("parchmint_shed_total",
		"Requests refused at admission with 429, by endpoint.", "endpoint")
	s.reg.GaugeFunc("parchmint_queue_waiting",
		"Requests waiting for a worker slot.",
		func() float64 { return float64(s.gate.Waiting()) })
	s.mJobsSubmitted = s.reg.Counter("parchmint_jobs_submitted_total",
		"Jobs accepted for async execution (including journal re-enqueues).")
	s.mJobsStarted = s.reg.Counter("parchmint_jobs_running_total",
		"Jobs that entered execution.")
	s.mJobsCompleted = s.reg.Counter("parchmint_jobs_completed_total",
		"Jobs finished successfully.")
	s.mJobsCanceled = s.reg.Counter("parchmint_jobs_canceled_total",
		"Jobs canceled before or during execution.")
	s.mJobsFailed = s.reg.Counter("parchmint_jobs_failed_total",
		"Jobs finished with an execution error.")
	s.reg.GaugeFunc("parchmint_jobs_active",
		"Jobs executing right now.",
		func() float64 {
			if s.jobs == nil {
				return 0
			}
			return float64(s.jobs.Running())
		})
	s.mJobDur = s.reg.Histogram("parchmint_job_duration_seconds",
		"Job execution latency (start to finish), by terminal status.", nil, "status")
	// Build identity and process lifecycle, Prometheus conventions: an
	// info-style constant gauge keyed by the same probe /healthz reads,
	// and the start time scrape-relative dashboards derive uptime from.
	version, revision := buildInfo()
	s.reg.Gauge("parchmint_build_info",
		"Build identity of the running binary; value is always 1.",
		"version", "go_version", "vcs_revision").
		Set(1, version, runtime.Version(), revision)
	s.reg.GaugeFunc("parchmint_process_start_time_seconds",
		"Unix time the server started, in seconds.",
		func() float64 { return float64(s.start.UnixNano()) / 1e9 })
	if cfg.FlightRequests >= 0 {
		s.flight = obs.NewFlightRecorder(cfg.FlightRequests, cfg.traceSample())
	}
	s.reg.GaugeFunc("parchmint_flight_records",
		"Request records currently retained by the flight recorder.",
		func() float64 { return float64(s.flight.Stats().Records) })
	// Runtime health series (parchmint_go_*), sampled at scrape time.
	obs.RegisterRuntimeMetrics(s.reg)
	s.mJournalDropped = s.reg.Counter("parchmint_journal_dropped_lines_total",
		"Journal lines skipped as unparseable during boot replay.")
	if cfg.Journal != nil {
		s.mJournalDropped.Add(float64(cfg.Journal.Dropped()))
		s.mJournalAppend = s.reg.Counter("parchmint_journal_append_errors_total",
			"Job journal records that failed to append, by record (start, finish, cancel); the job proceeds and replay re-runs it.", "record")
	}
	if len(cfg.Peers) > 0 {
		// The cluster registers the parchmint_peer_* families and starts
		// its health loops here; membership errors are configuration bugs
		// the CLI pre-validates (cluster.ValidateMembership), so reaching
		// one through the library API is a programmer error.
		cl, err := cluster.New(cluster.Config{
			Self:           cfg.Self,
			Peers:          cfg.Peers,
			HealthInterval: cfg.PeerHealthInterval,
			HedgeDelay:     cfg.PeerHedgeDelay,
			Transport:      cfg.PeerTransport,
			Registry:       s.reg,
			Logger:         cfg.Logger,
		})
		if err != nil {
			panic(fmt.Sprintf("serve: invalid cluster config: %v", err))
		}
		s.cluster = cl
		s.mForwardFallback = s.reg.Counter("parchmint_forward_fallback_total",
			"Forwarding hops that failed and were computed locally, by reason (transport, body).", "reason")
	}
	s.mCacheCells = make(map[string]*[3]*obs.CounterCell, len(operations))
	for _, op := range operations {
		cells := new([3]*obs.CounterCell)
		for _, o := range []cache.Outcome{cache.Miss, cache.Hit, cache.Coalesced} {
			cells[o] = s.mCacheReq.Cell(op.Name, o.String())
		}
		s.mCacheCells[op.Name] = cells
	}
	s.budgetVal = s.budget
	if cfg.CacheBytes > 0 {
		s.cache = cache.New(cfg.CacheBytes)
		s.cache.OnEvict(func(n int) { s.mCacheEvict.Add(float64(n)) })
	}
	// The recorder registers the algorithm families (anneal temperature and
	// acceptance, route expansions and pushes) and is what the handlers
	// attach to every request context.
	s.rec = obs.NewRecorder(s.tracer, s.reg, cfg.Logger)
	// The job store comes last: constructing it replays the journal, and
	// replayed jobs execute through jobExec, which needs the gate, cache,
	// and recorder above to be live.
	s.jobs = job.NewStore(job.Config{
		Exec:    s.jobExec,
		Workers: s.gate.Workers(),
		DescribeError: func(err error) (int, string) {
			status := httpStatus(err)
			return status, errorCode(err, status)
		},
		Journal: cfg.Journal,
		SeedCache: func(key string, ent cache.Entry) {
			if s.cache != nil {
				s.cache.Put(key, ent)
			}
		},
		ResultPath: jobResultPath,
		Timeout:    cfg.JobTimeout,
		MaxJobs:    cfg.MaxJobs,
		Hooks: job.Hooks{
			Submitted: func() { s.mJobsSubmitted.Inc() },
			Started:   func() { s.mJobsStarted.Inc() },
			// Reached only with a journal, where the counter exists.
			AppendFailed: func(record string) { s.mJournalAppend.Inc(record) },
			Finished: func(status job.Status, d time.Duration) {
				switch status {
				case job.StatusCompleted:
					s.mJobsCompleted.Inc()
				case job.StatusCanceled:
					s.mJobsCanceled.Inc()
				case job.StatusFailed:
					s.mJobsFailed.Inc()
				}
				s.mJobDur.Observe(d.Seconds(), string(status))
			},
		},
	})
	return s
}

// Close cancels every in-flight job, waits for the job runners to drain,
// and stops the cluster health loops. The HTTP listener and the journal
// belong to the caller.
func (s *Server) Close() {
	s.jobs.Close()
	if s.cluster != nil {
		s.cluster.Close()
	}
}

// Handler returns the service's routing table. Every pipeline endpoint is
// wrapped with the request body limit, the per-request timeout, and the
// telemetry middleware. Body-less GET endpoints skip the body limit, and
// the health endpoint additionally skips the pipeline timeout — a probe
// must answer even when every worker is saturated. The debug endpoints
// are wrapped too (without body limit or timeout), so bad query params
// answer in the unified error envelope; /metrics alone stays unwrapped,
// so scraping never gates on the worker pool or pollutes the very
// series it reads.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/validate", s.wrap(opValidate, s.serveOp(opValidate)))
	mux.Handle("POST /v1/convert", s.wrap(opConvert, s.serveOp(opConvert)))
	mux.Handle("POST /v1/pnr", s.wrap(opPNR, s.serveOp(opPNR)))
	mux.Handle("POST /v1/stats", s.wrap(opStats, s.serveOp(opStats)))
	mux.Handle("POST /v1/render.svg", s.wrap(opRender, s.serveOp(opRender)))
	mux.Handle("POST /v1/batch", s.wrap("batch", s.handleBatch))
	mux.Handle("POST /v1/jobs", s.wrap("jobs-submit", s.handleJobSubmit))
	mux.Handle("GET /v1/jobs", s.wrapWith("jobs-list", s.handleJobList, wrapOpts{noBodyLimit: true}))
	mux.Handle("GET /v1/jobs/{id}", s.wrapWith("jobs-get", s.handleJobGet, wrapOpts{noBodyLimit: true}))
	mux.Handle("GET /v1/jobs/{id}/result", s.wrapWith("jobs-result", s.handleJobResult, wrapOpts{noBodyLimit: true}))
	// The event stream outlives any request timeout by design; it ends
	// when the job does (or the client goes away, which cancels the job).
	// It also skips compression: SSE's value is incremental delivery,
	// which the compressor's buffering would defeat.
	mux.Handle("GET /v1/jobs/{id}/events", s.wrapWith("jobs-events", s.handleJobEvents, wrapOpts{noBodyLimit: true, noTimeout: true, noCompress: true}))
	mux.Handle("DELETE /v1/jobs/{id}", s.wrapWith("jobs-cancel", s.handleJobCancel, wrapOpts{noBodyLimit: true}))
	mux.Handle("GET /v1/bench", s.wrapWith("bench-list", s.handleBenchList, wrapOpts{noBodyLimit: true}))
	mux.Handle("GET /v1/bench/{name}", s.wrapWith("bench-get", s.handleBenchGet, wrapOpts{noBodyLimit: true}))
	mux.Handle("GET /healthz", s.wrapWith("healthz", s.handleHealthz, wrapOpts{noBodyLimit: true, noTimeout: true}))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("GET /debug/trace", s.wrapWith("debug-trace", s.handleTrace, wrapOpts{noBodyLimit: true, noTimeout: true}))
	mux.Handle("GET /debug/requests", s.wrapWith("debug-requests", s.handleFlightList, wrapOpts{noBodyLimit: true, noTimeout: true}))
	mux.Handle("GET /debug/requests/{id}", s.wrapWith("debug-requests-get", s.handleFlightGet, wrapOpts{noBodyLimit: true, noTimeout: true}))
	if s.cluster != nil {
		// Peer-facing routes exist only in cluster mode, so a single-node
		// server's surface (and responses) stay byte-identical to the
		// peerless build. The cache probe skips compression: probe bodies
		// are adopted verbatim into the requester's cache, and the exact
		// stored bytes are the point.
		mux.Handle("GET /internal/cache/{key}", s.wrapWith("peer-cache", s.handlePeerCache, wrapOpts{noBodyLimit: true, noCompress: true}))
		mux.Handle("POST /internal/shard", s.wrap("shard", s.handleShard))
	}
	return mux
}

// apiHandler is the shape of the endpoint handlers: they return an error
// instead of writing failure responses themselves, so the status mapping
// lives in exactly one place (httpStatus).
type apiHandler func(w http.ResponseWriter, r *http.Request) error

// statusWriter captures the status code for the metrics middleware while
// preserving the underlying writer's optional interfaces: without the
// Flush/ReadFrom passthroughs and Unwrap, wrapping would silently disable
// streaming (http.Flusher) and sendfile (io.ReaderFrom) for every
// wrapped handler.
type statusWriter struct {
	http.ResponseWriter
	status int
}

var (
	_ http.Flusher  = (*statusWriter)(nil)
	_ io.ReaderFrom = (*statusWriter)(nil)
)

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer so http.NewResponseController can
// discover upgrades (Flush, SetWriteDeadline, Hijack) through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Flush forwards to the underlying writer's http.Flusher, if any.
func (w *statusWriter) Flush() {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ReadFrom forwards to the underlying writer's io.ReaderFrom (the
// sendfile path), falling back to a plain copy.
func (w *statusWriter) ReadFrom(src io.Reader) (int64, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if rf, ok := w.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(src)
	}
	// Hide the underlying writer's other methods so io.Copy does not
	// rediscover this ReadFrom and recurse.
	return io.Copy(struct{ io.Writer }{w.ResponseWriter}, src)
}

// wrapOpts selects which middleware layers an endpoint gets.
type wrapOpts struct {
	// noBodyLimit skips http.MaxBytesReader — for body-less GET endpoints,
	// where limiting only wraps http.NoBody in dead machinery.
	noBodyLimit bool
	// noTimeout skips the pipeline deadline — for health and debug
	// endpoints that must answer even when the pipeline is saturated or
	// the configured timeout is pathological.
	noTimeout bool
	// noCompress skips Accept-Encoding negotiation — for the SSE stream,
	// where compression buffering would defeat incremental delivery.
	noCompress bool
}

// wrap applies the full service middleware stack: body size limit,
// request timeout, status capture, error-to-status mapping, and
// telemetry.
func (s *Server) wrap(endpoint string, h apiHandler) http.Handler {
	return s.wrapWith(endpoint, h, wrapOpts{})
}

// wrapWith is wrap with per-endpoint layer selection. Each request gets
// an ID (echoed in X-Request-Id, stamped on spans and the request log), a
// root span named http.<endpoint>, and the server's recorder on its
// context so pipeline spans and algorithm metrics flow from the engines
// without the handlers knowing. Telemetry never touches seeds or response
// bodies: identical request bodies stay byte-identical.
//
// This is the serving hot path, so the per-request machinery is pooled:
// one reqState carries the status writer, body buffer, decoded envelope,
// and a combined context link that answers the recorder, request ID,
// span, and CPU budget without a WithValue chain. The per-endpoint
// metric cells are bound once, here, at wrap time.
func (s *Server) wrapWith(endpoint string, h apiHandler, o wrapOpts) http.Handler {
	em := s.endpointMetrics(endpoint)
	spanName := "http." + endpoint
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		st := getReqState()
		defer putReqState(st)
		st.sw = statusWriter{ResponseWriter: w}
		sw := &st.sw
		if !o.noBodyLimit && r.Body != nil && r.Body != http.NoBody {
			limit := s.cfg.maxBody()
			st.lim = limitedBody{rc: r.Body, remain: limit, limit: limit}
			r.Body = &st.lim
		}
		reqID := s.ids.Next()
		st.vals.Rec = s.rec
		st.vals.SetID(reqID)
		// W3C trace context: join an inbound trace as a child (same trace
		// ID, fresh span ID), replace a malformed or absent traceparent
		// with a fresh root per spec. The map index (not Header.Get) keeps
		// the lookup of the non-canonical-cased wire name allocation-free.
		var inbound string
		if v := r.Header["Traceparent"]; len(v) > 0 {
			inbound = v[0]
		}
		tc, joined := obs.ParseTraceparent(inbound)
		if joined {
			tc = tc.Child()
			if v := r.Header["Tracestate"]; len(v) > 0 && obs.ValidTracestate(v[0]) {
				tc.State = v[0]
			}
		} else {
			tc = obs.NewTraceContext()
		}
		// One string materializes the whole identity; the trace ID is a
		// substring of it, so stamping spans, logs, and exemplars shares
		// the same backing bytes.
		var tpb [55]byte
		tp := string(obs.AppendTraceparent(tpb[:0], tc))
		st.vals.SetTrace(tp, tp[3:35])
		st.vals.Span = s.rec.NewRootSpan(spanName, st.vals.IDVal())
		st.vals.Span.SetAttr("trace_id", st.vals.TraceIDVal())
		if s.flight != nil {
			st.fl.Reset(start)
			st.vals.Span.CaptureTo(&st.fl)
		}
		st.ctx = reqContext{parent: r.Context(), vals: &st.vals, budget: s.budgetVal, state: st.self}
		var ctx context.Context = &st.ctx
		if !o.noTimeout {
			var cancel func()
			ctx, cancel = withTimeout(ctx, s.cfg.timeout())
			defer cancel()
		}
		// The header values escape the request (httptest recorders and
		// proxies read them afterwards), so they cannot come from the pool.
		hdr := sw.Header()
		hdr["X-Request-Id"] = []string{reqID}
		hdr["Traceparent"] = []string{tp}
		if tc.State != "" {
			hdr["Tracestate"] = []string{tc.State}
		}
		var hw http.ResponseWriter = sw
		var gzw *gzipWriter
		if !o.noCompress && acceptsGzip(r) {
			hdr["Content-Encoding"] = gzipEncodingVal
			hdr["Vary"] = varyAcceptVal
			st.gzw = gzipWriter{sw: sw}
			gzw = &st.gzw
			hw = gzw
		}
		r2 := r.WithContext(ctx)
		runHandler(ctx, h, hw, r2, gzw)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		st.vals.Span.SetAttr("status", sw.status)
		st.vals.Span.End()
		d := time.Since(start)
		s.observe(em, sw.status, d, st.vals.TraceID())
		if s.flight != nil {
			var outcome string
			if v := hdr[cacheHeader]; len(v) > 0 {
				outcome = v[0]
			}
			s.flight.Offer(obs.RequestRecord{
				ID:          reqID,
				TraceID:     st.vals.TraceID(),
				Traceparent: tp,
				Endpoint:    endpoint,
				Method:      r.Method,
				Path:        r.URL.Path,
				Status:      sw.status,
				Start:       start,
				Duration:    d,
				Cache:       outcome,
			}, &st.fl)
		}
		if s.cfg.Logger != nil {
			s.cfg.Logger.Info("request",
				"id", reqID,
				"trace", st.vals.TraceID(),
				"endpoint", endpoint,
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"duration_ms", float64(d.Microseconds())/1000)
		}
	})
}

// Shared constant header values, so hot-path header assignment is one
// map store of a prewritten slice. net/http only ever reads them.
var (
	ctJSONVal = []string{"application/json"}
	ctSVGVal  = []string{"image/svg+xml"}
)

// contentTypeValue maps a content type to a shared header slice,
// allocating only for types outside the service's two.
func contentTypeValue(ct string) []string {
	switch ct {
	case "application/json":
		return ctJSONVal
	case "image/svg+xml":
		return ctSVGVal
	}
	return []string{ct}
}

// prettyRequested reports whether the raw query opts into indented
// output: pretty, pretty=1, pretty=true, or pretty=yes. The scan
// allocates nothing, so the common no-query request pays one length
// check.
func prettyRequested(rawQuery string) bool {
	for q := rawQuery; q != ""; {
		var kv string
		kv, q, _ = strings.Cut(q, "&")
		k, v, _ := strings.Cut(kv, "=")
		if k == "pretty" {
			return v == "" || v == "1" || v == "true" || v == "yes"
		}
	}
	return false
}

// requestPretty is prettyRequested over a request, tolerating the nil
// request some internal callers pass.
func requestPretty(r *http.Request) bool {
	return r != nil && prettyRequested(r.URL.RawQuery)
}

// jsonBufPool holds the scratch buffers writeJSON renders into — pooled
// so batch envelopes and job documents do not allocate a fresh buffer
// per response.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledJSONBuf caps the capacity a pooled writeJSON buffer retains.
const maxPooledJSONBuf = 1 << 20

// writeJSON renders a JSON response body with a trailing newline —
// compact by default, indented when the request carries ?pretty=1. The
// encoder is deterministic for the response DTOs (struct field order;
// map keys sorted by encoding/json), which is what makes identical
// request bodies yield byte-identical responses; the pretty rendering is
// a pure reformatting of the same compact bytes.
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) error {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	if requestPretty(r) {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		jsonBufPool.Put(buf)
		return fmt.Errorf("serve: encoding response: %w", err)
	}
	h := w.Header()
	h["Content-Type"] = ctJSONVal
	w.WriteHeader(status)
	_, err := w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledJSONBuf {
		jsonBufPool.Put(buf)
	}
	return err
}

// indentEntry reformats a stored compact JSON body (with its trailing
// newline) into the indented form ?pretty=1 serves — byte-identical to
// what writeJSON's pretty path renders for the same value.
func indentEntry(compact []byte) ([]byte, error) {
	var out bytes.Buffer
	out.Grow(2 * len(compact))
	if err := json.Indent(&out, bytes.TrimRight(compact, "\n"), "", "  "); err != nil {
		return nil, fmt.Errorf("serve: indenting response: %w", err)
	}
	out.WriteByte('\n')
	return out.Bytes(), nil
}
