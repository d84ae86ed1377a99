package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mint"
	"repro/internal/par"
	"repro/internal/place"
	"repro/internal/pnr"
	"repro/internal/render"
	"repro/internal/route"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/validate"
)

// The pipeline operations. The names double as metric endpoint labels,
// batch item "op" values, and the first component of cache keys.
const (
	opValidate = "validate"
	opConvert  = "convert"
	opPNR      = "pnr"
	opStats    = "stats"
	opRender   = "render"
)

// cacheHeader reports how a cached endpoint's response was produced:
// "hit" (served from the LRU), "miss" (computed and stored), or
// "coalesced" (piggybacked on a concurrent identical computation). Absent
// when caching is disabled.
const cacheHeader = "X-Parchmint-Cache"

// request is the shared JSON envelope of the pipeline endpoints. Exactly
// one device source must be given: a suite benchmark name, an inline
// ParchMint JSON document, or device text with an explicit format.
type request struct {
	// Bench names a built-in suite benchmark ("rotary_pcr").
	Bench string `json:"bench,omitempty"`
	// Device is an inline ParchMint JSON document.
	Device json.RawMessage `json:"device,omitempty"`
	// Text is device source text; Format says how to parse it.
	Text   string `json:"text,omitempty"`
	Format string `json:"format,omitempty"`

	// Seed overrides the derived per-device seed (pnr only); 0 derives
	// DeriveSeed(BaseSeed, deviceName).
	Seed uint64 `json:"seed,omitempty"`
	// Placer and Router select engines by name (pnr only).
	Placer string `json:"placer,omitempty"`
	Router string `json:"router,omitempty"`
	// Utilization overrides the die utilization fraction (pnr only).
	Utilization float64 `json:"utilization,omitempty"`
	// Replicas overrides the server's parallel-tempering replica count
	// for the annealing placer (pnr and render only); 0 uses the server
	// default, values below 2 select the single-replica schedule.
	Replicas int `json:"replicas,omitempty"`

	// To selects the conversion target, "mint" or "json" (convert only);
	// empty converts to the opposite of the input format.
	To string `json:"to,omitempty"`

	// Scale and Labels tune SVG rendering (render only).
	Scale  float64 `json:"scale,omitempty"`
	Labels bool    `json:"labels,omitempty"`

	// Re-encoding hints, set only by the envelope parser alongside the
	// field they describe, so appendRequestJSON can copy bytes instead of
	// re-encoding them. deviceCompact reports that Device is already what
	// core.AppendCompactJSON makes of it; textRaw, when non-nil, is Text's
	// literal exactly as core.AppendJSONString writes it. textRaw aliases
	// the request body, as Device does.
	deviceCompact bool
	textRaw       []byte
}

// decodeRequest parses the request envelope: the whole body into the
// request's pooled buffer, then one pass of the hand-rolled parser. The
// returned request lives in the pooled state (its Device field aliases
// the body buffer) and is valid until the request completes.
func decodeRequest(r *http.Request) (*request, error) {
	body, err := requestBody(r)
	if err != nil {
		return nil, badBody("request body", err)
	}
	var req *request
	if st := stateFrom(r); st != nil {
		st.req = request{}
		req = &st.req
	} else {
		req = new(request)
	}
	if err := parseRequest(body, req); err != nil {
		return nil, badBody("request body", err)
	}
	return req, nil
}

// resolve loads the request's device through the same cli.Load path the
// command-line tools use. The raw JSON bytes (when the source was JSON)
// come back too, so the validate endpoint can schema-check them.
func resolve(ctx context.Context, req *request) (*cli.Result, []byte, error) {
	switch {
	case req.Bench != "":
		res, err := cli.Load(ctx, cli.Source{Name: req.Bench, Format: cli.FormatBench})
		return res, nil, err
	case len(req.Device) > 0:
		res, err := cli.Load(ctx, cli.Source{Name: "request", Format: cli.FormatJSON, Reader: bytes.NewReader(req.Device)})
		return res, req.Device, err
	case req.Text != "":
		format := cli.Format(req.Format)
		if format != cli.FormatJSON && format != cli.FormatMINT {
			return nil, nil, fmt.Errorf("%w: text requires format \"json\" or \"mint\", got %q", errBadRequest, req.Format)
		}
		res, err := cli.Load(ctx, cli.Source{Name: "request", Format: format, Reader: strings.NewReader(req.Text)})
		var raw []byte
		if format == cli.FormatJSON {
			raw = []byte(req.Text)
		}
		return res, raw, err
	default:
		return nil, nil, fmt.Errorf("%w: one of bench, device, or text is required", errBadRequest)
	}
}

// serveOp adapts one pipeline operation into an apiHandler: decode the
// envelope, validate it against the shared operation table, run the
// operation through the result cache, and replay the materialized entry
// — for a gzip client, the entry's stored gzip encoding (gzipVariant).
// In cluster mode the request is first sharded by its content address:
// a request landing on a non-owner takes one forwarding hop to the key's
// owner (where its cache entries, coalescing, and journal records
// concentrate), with local execution as the fallback when the hop fails.
func (s *Server) serveOp(name string) apiHandler {
	op := mustOperation(name)
	return func(w http.ResponseWriter, r *http.Request) error {
		req, err := decodeRequest(r)
		if err != nil {
			return err
		}
		if err := op.validate(req); err != nil {
			return err
		}
		var key string
		if s.cache != nil || s.cluster != nil {
			key = s.cacheKey(op.Name, req)
		}
		if s.cluster != nil {
			owner := s.cluster.Route(key)
			w.Header()[cluster.ShardHeader] = []string{owner}
			if s.forwardable(r, owner) {
				if env, eerr := appendRequestJSON(nil, req); eerr == nil &&
					s.forwardTo(w, r, owner, "application/json", env) {
					return nil
				}
			}
		}
		ent, outcome, err := s.runCachedKey(r.Context(), op, req, key)
		if err != nil {
			return err
		}
		body := ent.Body
		pretty := requestPretty(r) && ent.ContentType == "application/json"
		if pretty {
			if body, err = indentEntry(ent.Body); err != nil {
				return err
			}
		}
		var encoded []byte
		gzw, gzipped := w.(*gzipWriter)
		if gzipped && s.cache != nil && !pretty {
			if encoded, err = s.gzipVariant(r.Context(), key, ent); err != nil {
				return err
			}
		}
		h := w.Header()
		if outcome != "" {
			h[cacheHeader] = outcomeHeaderValue(outcome)
		}
		h["Content-Type"] = contentTypeValue(ent.ContentType)
		if encoded != nil {
			return gzw.writeEncoded(encoded)
		}
		w.WriteHeader(http.StatusOK)
		_, err = w.Write(body)
		return err
	}
}

// Shared header slices for the three cache outcomes; see cacheHeader.
var outcomeHeaderVals = map[string][]string{
	cache.Hit.String():       {cache.Hit.String()},
	cache.Miss.String():      {cache.Miss.String()},
	cache.Coalesced.String(): {cache.Coalesced.String()},
}

func outcomeHeaderValue(outcome string) []string {
	if v, ok := outcomeHeaderVals[outcome]; ok {
		return v
	}
	return []string{outcome}
}

// runCached executes op through the content-addressed result cache:
// concurrent identical requests coalesce onto one computation, repeated
// ones replay stored bytes. With caching disabled it computes directly
// and reports no outcome. Only successful responses are ever stored, so
// error statuses are recomputed per request. The warm path — key
// derivation, probe, outcome accounting — allocates only the key string:
// a hit bypasses Do (no compute closure) and records through a pre-bound
// metric cell.
func (s *Server) runCached(ctx context.Context, op *Operation, req *request) (cache.Entry, string, error) {
	return s.runCachedKey(ctx, op, req, "")
}

// runCachedKey is runCached with an optionally precomputed key (the
// sharding path derives it before routing; "" derives it here). In
// cluster mode a local miss probes the key's owner before computing:
// the owner's bytes are byte-identical to a local recomputation by the
// determinism contract, so an adopted entry is reported as a hit.
func (s *Server) runCachedKey(ctx context.Context, op *Operation, req *request, key string) (cache.Entry, string, error) {
	if s.cache == nil {
		ent, err := op.run(s, ctx, req)
		return ent, "", err
	}
	if key == "" {
		key = s.cacheKey(op.Name, req)
	}
	if ent, ok := s.cache.Lookup(key); ok {
		s.mCacheCells[op.Name][cache.Hit].Inc()
		return ent, cache.Hit.String(), nil
	}
	if s.cluster != nil {
		if pe, ok := s.cluster.ProbeOwner(ctx, key); ok {
			ent := cache.Entry{ContentType: pe.ContentType, Body: pe.Body}
			s.cache.Put(key, ent)
			s.mCacheCells[op.Name][cache.Hit].Inc()
			return ent, cache.Hit.String(), nil
		}
	}
	ent, outcome, err := s.cache.Do(ctx, key, func() (cache.Entry, error) {
		return op.run(s, ctx, req)
	})
	if err != nil {
		return cache.Entry{}, "", err
	}
	s.mCacheCells[op.Name][outcome].Inc()
	return ent, outcome.String(), nil
}

// replicas resolves the effective annealing replica count for a request:
// the request's explicit value, else the server default.
func (s *Server) replicas(req *request) int {
	if req.Replicas != 0 {
		return req.Replicas
	}
	return s.cfg.Replicas
}

// gateDo admits fn through the worker gate, translating gate saturation
// into the service's typed overload error (429 + Retry-After).
func (s *Server) gateDo(ctx context.Context, fn func() error) error {
	err := s.gate.Do(ctx, fn)
	var sat *saturatedError
	if errors.As(err, &sat) {
		return &OverloadedError{RetryAfter: retryAfterHint(sat.estimatedWait), cause: sat}
	}
	return err
}

// diagDTO is the JSON rendering of one validation diagnostic.
type diagDTO struct {
	Severity string `json:"severity"`
	Code     string `json:"code"`
	Path     string `json:"path"`
	Message  string `json:"message"`
}

type validateResponse struct {
	Device      string    `json:"device"`
	OK          bool      `json:"ok"`
	Errors      int       `json:"errors"`
	Warnings    int       `json:"warnings"`
	Diagnostics []diagDTO `json:"diagnostics"`
	// Schema lists raw-document schema issues (JSON sources only).
	Schema []string `json:"schema,omitempty"`
}

// execValidate reports semantic diagnostics (and, for JSON sources,
// schema issues) as a 200 response; an invalid device is a successful
// validation, not a failed request.
func (s *Server) execValidate(ctx context.Context, req *request) (cache.Entry, error) {
	res, raw, err := resolve(ctx, req)
	if err != nil {
		return cache.Entry{}, err
	}
	report := validate.Validate(res.Device)
	resp := validateResponse{
		Device:      res.Device.Name,
		OK:          report.OK(),
		Errors:      report.Errors(),
		Warnings:    report.Warnings(),
		Diagnostics: make([]diagDTO, 0, len(report.Diags)),
	}
	for _, d := range report.Diags {
		resp.Diagnostics = append(resp.Diagnostics, diagDTO{
			Severity: d.Severity.String(),
			Code:     string(d.Code),
			Path:     d.Path,
			Message:  d.Message,
		})
	}
	if raw != nil {
		sr := schema.Check(raw)
		for _, issue := range sr.Issues {
			resp.Schema = append(resp.Schema, issue.String())
		}
	}
	sc := encScratchPool.Get().(*[]byte)
	b := appendValidateResponse((*sc)[:0], &resp)
	ent := entryFromScratch(b)
	*sc = b[:0]
	encScratchPool.Put(sc)
	return ent, nil
}

type convertResponse struct {
	Target string `json:"target"`
	// Output is the converted MINT text (target "mint").
	Output string `json:"output,omitempty"`
	// Device is the converted ParchMint document (target "json").
	Device   json.RawMessage `json:"device,omitempty"`
	Lossless bool            `json:"lossless"`
	Notes    []string        `json:"notes,omitempty"`
}

// execConvert translates between MINT and ParchMint JSON. Fidelity
// notes from both the load and the conversion are returned as values —
// exactly what the cli.Result redesign exists for.
func (s *Server) execConvert(ctx context.Context, req *request) (cache.Entry, error) {
	res, _, err := resolve(ctx, req)
	if err != nil {
		return cache.Entry{}, err
	}
	target := req.To
	if target == "" {
		if res.Format == cli.FormatMINT {
			target = "json"
		} else {
			target = "mint"
		}
	}
	notes := append([]string(nil), res.Notes...)
	var resp convertResponse
	switch target {
	case "mint":
		f, fid, err := mint.FromDevice(res.Device)
		if err != nil {
			return cache.Entry{}, fmt.Errorf("serve: converting to MINT: %w", err)
		}
		notes = append(notes, fid.Notes...)
		resp = convertResponse{
			Target:   "mint",
			Output:   mint.Print(f),
			Lossless: len(notes) == 0,
			Notes:    notes,
		}
	case "json":
		// The canonical compact encoding — the same bytes json.Marshal
		// would produce for the device, so the embedded document is
		// byte-identical to what the reflective encoder emitted.
		data, err := core.MarshalCanonical(res.Device)
		if err != nil {
			return cache.Entry{}, fmt.Errorf("serve: encoding device: %w", err)
		}
		resp = convertResponse{
			Target:   "json",
			Device:   data,
			Lossless: len(notes) == 0,
			Notes:    notes,
		}
	default:
		return cache.Entry{}, fmt.Errorf("%w: to must be \"mint\" or \"json\", got %q", errBadRequest, req.To)
	}
	sc := encScratchPool.Get().(*[]byte)
	b := appendConvertResponse((*sc)[:0], &resp)
	ent := entryFromScratch(b)
	*sc = b[:0]
	encScratchPool.Put(sc)
	return ent, nil
}

type placeSummary struct {
	HPWL     int64 `json:"hpwl_um"`
	Area     int64 `json:"area_um2"`
	Overlaps int   `json:"overlaps"`
	Placed   int   `json:"placed"`
}

type routeSummary struct {
	Routed     int     `json:"routed"`
	Total      int     `json:"total"`
	Completion float64 `json:"completion_rate"`
	Length     int64   `json:"total_length_um"`
	Expansions int     `json:"expansions"`
	Rounds     int     `json:"rounds"`
}

type pnrResponse struct {
	Device json.RawMessage `json:"device"`
	Seed   uint64          `json:"seed"`
	Placer string          `json:"placer"`
	Router string          `json:"router"`
	Place  placeSummary    `json:"place"`
	Route  routeSummary    `json:"route"`
}

// execPNR runs the full place-and-route flow inside the worker gate.
// The device must validate (422 otherwise); the effective seed is the
// request's, or DeriveSeed(BaseSeed, deviceName) — a pure function of the
// request body, never of arrival order.
func (s *Server) execPNR(ctx context.Context, req *request) (cache.Entry, error) {
	res, _, err := resolve(ctx, req)
	if err != nil {
		return cache.Entry{}, err
	}
	if verr := validate.Validate(res.Device).Err(); verr != nil {
		return cache.Entry{}, verr
	}
	placer, err := place.EngineByName(req.Placer)
	if err != nil {
		return cache.Entry{}, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	router, err := route.EngineByName(req.Router)
	if err != nil {
		return cache.Entry{}, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	seed := req.Seed
	if seed == 0 {
		seed = par.DeriveSeed(s.cfg.BaseSeed, res.Device.Name)
	}
	var resp pnrResponse
	err = s.gateDo(ctx, func() error {
		opts := []pnr.Option{
			pnr.WithPlacer(placer),
			pnr.WithRouter(router),
			pnr.WithSeed(seed),
			pnr.WithReplicas(s.replicas(req)),
			pnr.WithObserver(s.stageObserver(ctx, res.Device.Name)),
		}
		if req.Utilization > 0 {
			opts = append(opts, pnr.WithUtilization(req.Utilization))
		}
		result, err := pnr.RunContext(ctx, res.Device, pnr.NewOptions(opts...))
		if err != nil {
			return err
		}
		data, err := core.MarshalCanonical(result.Device)
		if err != nil {
			return fmt.Errorf("serve: encoding device: %w", err)
		}
		resp = pnrResponse{
			Device: data,
			Seed:   seed,
			Placer: placer.Name(),
			Router: router.Name(),
			Place: placeSummary{
				HPWL:     result.PlaceMetrics.HPWL,
				Area:     result.PlaceMetrics.Area,
				Overlaps: result.PlaceMetrics.Overlaps,
				Placed:   result.PlaceMetrics.Placed,
			},
			Route: routeSummary{
				Routed:     result.RouteReport.Routed(),
				Total:      result.RouteReport.Total(),
				Completion: result.RouteReport.CompletionRate(),
				Length:     result.RouteReport.TotalLength(),
				Expansions: result.RouteReport.TotalExpansions(),
				Rounds:     result.RouteReport.Rounds,
			},
		}
		return nil
	})
	if err != nil {
		return cache.Entry{}, err
	}
	sc := encScratchPool.Get().(*[]byte)
	b, err := appendPNRResponse((*sc)[:0], &resp)
	if err != nil {
		encScratchPool.Put(sc)
		return cache.Entry{}, fmt.Errorf("serve: encoding response: %w", err)
	}
	ent := entryFromScratch(b)
	*sc = b[:0]
	encScratchPool.Put(sc)
	return ent, nil
}

// execStats returns the paper's Table 1 characterization profile.
func (s *Server) execStats(ctx context.Context, req *request) (cache.Entry, error) {
	res, _, err := resolve(ctx, req)
	if err != nil {
		return cache.Entry{}, err
	}
	class := "custom"
	if req.Bench != "" {
		if b, err := bench.ByName(strings.TrimPrefix(req.Bench, "bench:")); err == nil {
			class = string(b.Class)
		}
	}
	profile := stats.ProfileDevice(res.Device, class)
	sc := encScratchPool.Get().(*[]byte)
	b, err := appendStatsProfile((*sc)[:0], &profile)
	if err != nil {
		encScratchPool.Put(sc)
		return cache.Entry{}, fmt.Errorf("serve: encoding response: %w", err)
	}
	ent := entryFromScratch(b)
	*sc = b[:0]
	encScratchPool.Put(sc)
	return ent, nil
}

// execRender returns the device drawn as SVG. Devices without physical
// features are placed and routed first (inside the worker gate, with the
// device's derived seed) so any source renders.
func (s *Server) execRender(ctx context.Context, req *request) (cache.Entry, error) {
	res, _, err := resolve(ctx, req)
	if err != nil {
		return cache.Entry{}, err
	}
	d := res.Device
	if !d.HasFeatures() {
		err := s.gateDo(ctx, func() error {
			result, err := pnr.RunContext(ctx, d, pnr.NewOptions(
				pnr.WithSeed(par.DeriveSeed(s.cfg.BaseSeed, d.Name)),
				pnr.WithReplicas(s.replicas(req)),
				pnr.WithObserver(s.stageObserver(ctx, d.Name)),
			))
			if err != nil {
				return err
			}
			d = result.Device
			return nil
		})
		if err != nil {
			return cache.Entry{}, err
		}
	}
	svg, err := render.SVG(d, render.Options{Scale: req.Scale, ShowLabels: req.Labels})
	if err != nil {
		return cache.Entry{}, fmt.Errorf("serve: rendering: %w", err)
	}
	return cache.Entry{ContentType: "image/svg+xml", Body: []byte(svg)}, nil
}

// benchEntry is one row of the suite listing.
type benchEntry struct {
	Name        string `json:"name"`
	Class       string `json:"class"`
	Description string `json:"description"`
	Components  int    `json:"components"`
	Connections int    `json:"connections"`
	Layers      int    `json:"layers"`
}

// benchListResponse is the suite listing envelope. Total counts the
// items after filtering, so paging clients can trust it.
type benchListResponse struct {
	Items []benchEntry `json:"items"`
	Total int          `json:"total"`
}

// handleBenchList lists the suite in canonical order, using the shared
// device cache (Benchmark.Device) so repeated listings build nothing.
// ?prefix= narrows the listing to benchmarks whose name starts with the
// prefix. The format parameter is reserved: any value is refused.
func (s *Server) handleBenchList(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	if format := q.Get("format"); format != "" {
		return fmt.Errorf("%w: format must be omitted, got %q", errBadRequest, format)
	}
	prefix := q.Get("prefix")
	suite := bench.Suite()
	entries := make([]benchEntry, 0, len(suite))
	for _, b := range suite {
		if !strings.HasPrefix(b.Name, prefix) {
			continue
		}
		d := b.Device()
		entries = append(entries, benchEntry{
			Name:        b.Name,
			Class:       string(b.Class),
			Description: b.Description,
			Components:  len(d.Components),
			Connections: len(d.Connections),
			Layers:      len(d.Layers),
		})
	}
	return writeJSON(w, r, http.StatusOK, benchListResponse{Items: entries, Total: len(entries)})
}

// handleBenchGet serves one benchmark's ParchMint document.
func (s *Server) handleBenchGet(w http.ResponseWriter, r *http.Request) error {
	b, err := bench.ByName(r.PathValue("name"))
	if err != nil {
		return err
	}
	data, err := core.MarshalCanonical(b.Device())
	if err != nil {
		return fmt.Errorf("serve: encoding device: %w", err)
	}
	body := append(data, '\n')
	if requestPretty(r) {
		if body, err = indentEntry(body); err != nil {
			return err
		}
	}
	w.Header()["Content-Type"] = ctJSONVal
	_, err = w.Write(body)
	return err
}

type healthResponse struct {
	Status  string `json:"status"`
	Workers int    `json:"workers"`
	// Version and Revision identify the running build: the main module
	// version and the VCS commit, from runtime/debug.ReadBuildInfo.
	// Empty when the binary carries no build metadata (plain go test).
	Version  string `json:"version,omitempty"`
	Revision string `json:"revision,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// UptimeSeconds counts whole seconds since the server was constructed.
	UptimeSeconds int64 `json:"uptime_seconds"`
}

// buildInfo reads the main-module version and VCS revision baked into the
// binary; both come back empty when the build carries no metadata.
func buildInfo() (version, revision string) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", ""
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		version = v
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			revision = kv.Value
		}
	}
	return version, revision
}

// handleHealthz reports liveness, the gate's admission limit, and build
// identity. Status and workers are deterministic; uptime is the one field
// probes should expect to move.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	version, revision := buildInfo()
	return writeJSON(w, r, http.StatusOK, healthResponse{
		Status:        "ok",
		Workers:       s.gate.Workers(),
		Version:       version,
		Revision:      revision,
		GoVersion:     runtime.Version(),
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
	})
}

// BaseSeedDefault is the service's default base seed, matching the
// experiment harness so bench-sourced service runs reproduce the CLI
// artifacts exactly.
const BaseSeedDefault = 2018
