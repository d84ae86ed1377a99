package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
)

// The serving hot path's request-side codec. Decoding runs the shared
// core.Parser over the whole body in one pass (pooled scratch, interned
// small strings); encoding replays the decoded envelope into canonical
// bytes with the core append encoders. Both halves are pinned
// byte-for-byte against encoding/json by TestParseRequestMatchesStd and
// TestAppendRequestJSONMatchesStd, which is what keeps cache keys and
// journaled job envelopes identical to the reflection-based path they
// replaced.

// reqState is the per-request scratch a wrapped endpoint owns: the
// status-capturing writer, the decoded envelope, the body buffer, and the
// telemetry value carrier — pooled together so the warm path allocates
// none of them.
type reqState struct {
	sw   statusWriter
	gzw  gzipWriter
	req  request
	body []byte
	vals obs.RequestValues
	ctx  reqContext
	lim  limitedBody
	// fl collects the request's finished spans for the flight recorder;
	// armed per request, disarmed at pool release so a straggling span
	// cannot write into a buffer the next request owns.
	fl   obs.FlightBuf
	self any // this state boxed once, answered under reqStateKey
}

// maxPooledBody caps the body capacity a pooled state retains, so one
// near-limit request cannot pin megabytes in every pool slot.
const maxPooledBody = 1 << 20

var reqStatePool = sync.Pool{New: func() any {
	st := &reqState{}
	st.self = st
	return st
}}

func getReqState() *reqState { return reqStatePool.Get().(*reqState) }

func putReqState(st *reqState) {
	st.sw = statusWriter{}
	st.gzw = gzipWriter{}
	st.req = request{}
	st.vals.Reset()
	st.ctx = reqContext{}
	st.lim = limitedBody{}
	st.fl.Disarm()
	if cap(st.body) > maxPooledBody {
		st.body = nil
	} else {
		st.body = st.body[:0]
	}
	reqStatePool.Put(st)
}

// limitedBody enforces the request body limit with http.MaxBytesReader's
// observable behavior — up to limit bytes pass through, going past it
// yields a sticky *http.MaxBytesError — from a pooled slot in the
// request state instead of a per-request allocation.
type limitedBody struct {
	rc     io.ReadCloser
	remain int64
	limit  int64
	err    error
}

func (l *limitedBody) Read(p []byte) (int, error) {
	if l.err != nil {
		return 0, l.err
	}
	// Read one byte past the budget so an exactly-limit body still sees
	// its normal EOF rather than a spurious limit error.
	if int64(len(p)) > l.remain+1 {
		p = p[:l.remain+1]
	}
	n, err := l.rc.Read(p)
	if int64(n) > l.remain {
		n = int(l.remain)
		l.remain = 0
		l.err = &http.MaxBytesError{Limit: l.limit}
		return n, l.err
	}
	l.remain -= int64(n)
	return n, err
}

func (l *limitedBody) Close() error { return l.rc.Close() }

// reqStateKey fetches the request's reqState from its context; the
// zero-size key boxes for free.
type reqStateKey struct{}

// reqContext is the request's combined context layer: one link that
// answers the recorder, request ID, root span, and request state
// directly, replacing the chain of WithValue wrappers (and their
// allocations) the middleware used to build. Everything else
// defers to the parent.
type reqContext struct {
	parent context.Context
	vals   *obs.RequestValues
	state  any // the owning *reqState, boxed once at pool insert
}

func (c *reqContext) Deadline() (deadline time.Time, ok bool) { return c.parent.Deadline() }
func (c *reqContext) Done() <-chan struct{}                   { return c.parent.Done() }
func (c *reqContext) Err() error                              { return c.parent.Err() }

func (c *reqContext) Value(key any) any {
	if v, ok := c.vals.ValueFor(key); ok {
		return v
	}
	if _, ok := key.(reqStateKey); ok {
		return c.state
	}
	return c.parent.Value(key)
}

// stateFrom returns the request's pooled state, or nil when the handler
// runs outside the service middleware (direct handler tests).
func stateFrom(r *http.Request) *reqState {
	st, _ := r.Context().Value(reqStateKey{}).(*reqState)
	return st
}

// requestBody reads the whole body into the request state's pooled
// buffer (a fresh buffer when unwrapped). The returned slice — and any
// envelope fields aliasing it — is valid until the request completes.
// Reading to EOF up front is what makes the single-pass key/body
// pipeline possible; the one observable difference from the streaming
// decoder it replaced is that trailing bytes beyond the first JSON value
// now count against MaxBodyBytes.
func requestBody(r *http.Request) ([]byte, error) {
	var buf []byte
	st := stateFrom(r)
	if st != nil {
		buf = st.body[:0]
	} else {
		buf = make([]byte, 0, 512)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if st != nil {
			st.body = buf
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// badBody classifies a body-read or parse failure: MaxBytesError passes
// through (it maps to 413), everything else becomes a 400 with the
// surface's wording.
func badBody(surface string, err error) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return err
	}
	return fmt.Errorf("%w: decoding %s: %v", errBadRequest, surface, err)
}

// parseRequest decodes the shared envelope from data with the semantics
// of json.Decoder.Decode into a zero request: case-folded key match,
// last duplicate wins, null field values ignored (null device captures
// the literal, as json.RawMessage does), unknown fields skipped, content
// after the first top-level value ignored.
func parseRequest(data []byte, req *request) error {
	p := core.NewParser(data)
	defer p.Release()
	if p.AtEOF() {
		return io.EOF
	}
	if p.TryNull() {
		return nil
	}
	if err := p.BeginObject(); err != nil {
		return err
	}
	first := true
	for {
		key, ok, err := p.NextKey(&first)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := applyRequestField(p, key, req); err != nil {
			return err
		}
	}
}

// applyRequestField decodes one envelope member, shared by the
// standalone endpoints, batch items, and job submissions (whose "op"
// member each wrapper handles before delegating here). Unknown keys are
// skipped, as encoding/json does.
func applyRequestField(p *core.Parser, key []byte, req *request) error {
	switch {
	case core.FoldEq(key, "BENCH"):
		return envString(p, &req.Bench)
	case core.FoldEq(key, "DEVICE"):
		raw, compact, err := p.RawValueCompact()
		if err != nil {
			return err
		}
		req.Device, req.deviceCompact = raw, compact
	case core.FoldEq(key, "TEXT"):
		if p.TryNull() {
			return nil
		}
		s, raw, canonical, err := p.ReadStringRaw()
		if err != nil {
			return err
		}
		req.Text, req.textRaw = s, nil
		if canonical {
			req.textRaw = raw
		}
	case core.FoldEq(key, "FORMAT"):
		return envString(p, &req.Format)
	case core.FoldEq(key, "SEED"):
		if p.TryNull() {
			return nil
		}
		v, err := p.ReadUint64()
		if err != nil {
			return err
		}
		req.Seed = v
	case core.FoldEq(key, "PLACER"):
		return envString(p, &req.Placer)
	case core.FoldEq(key, "ROUTER"):
		return envString(p, &req.Router)
	case core.FoldEq(key, "UTILIZATION"):
		return envFloat(p, &req.Utilization)
	case core.FoldEq(key, "REPLICAS"):
		if p.TryNull() {
			return nil
		}
		v, err := p.ReadInt64()
		if err != nil {
			return err
		}
		req.Replicas = int(v)
	case core.FoldEq(key, "TO"):
		return envString(p, &req.To)
	case core.FoldEq(key, "SCALE"):
		return envFloat(p, &req.Scale)
	case core.FoldEq(key, "LABELS"):
		if p.TryNull() {
			return nil
		}
		v, err := p.ReadBool()
		if err != nil {
			return err
		}
		req.Labels = v
	default:
		return p.SkipValue()
	}
	return nil
}

func envString(p *core.Parser, dst *string) error {
	if p.TryNull() {
		return nil
	}
	s, err := p.ReadString()
	if err != nil {
		return err
	}
	*dst = s
	return nil
}

func envFloat(p *core.Parser, dst *float64) error {
	if p.TryNull() {
		return nil
	}
	v, err := p.ReadFloat64()
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// appendRequestJSON appends the canonical envelope — exactly the bytes
// json.Marshal(req) produces — to dst. It is the single source of the
// cache-key body component and the job journal's replay unit, so it must
// never drift from the reflective encoding (TestAppendRequestJSONMatchesStd).
// The error path is unreachable for parser-produced envelopes (JSON
// cannot carry non-finite floats); it exists for hand-built requests.
func appendRequestJSON(dst []byte, req *request) ([]byte, error) {
	var err error
	dst = append(dst, '{')
	n := len(dst)
	comma := func(b []byte) []byte {
		if len(b) > n {
			return append(b, ',')
		}
		return b
	}
	if req.Bench != "" {
		dst = append(dst, `"bench":`...)
		dst = core.AppendJSONString(dst, req.Bench)
	}
	if len(req.Device) > 0 {
		dst = append(comma(dst), `"device":`...)
		if req.deviceCompact {
			dst = append(dst, req.Device...)
		} else {
			dst = core.AppendCompactJSON(dst, req.Device)
		}
	}
	if req.Text != "" {
		dst = append(comma(dst), `"text":`...)
		if req.textRaw != nil {
			dst = append(dst, req.textRaw...)
		} else {
			dst = core.AppendJSONString(dst, req.Text)
		}
	}
	if req.Format != "" {
		dst = append(comma(dst), `"format":`...)
		dst = core.AppendJSONString(dst, req.Format)
	}
	if req.Seed != 0 {
		dst = append(comma(dst), `"seed":`...)
		dst = strconv.AppendUint(dst, req.Seed, 10)
	}
	if req.Placer != "" {
		dst = append(comma(dst), `"placer":`...)
		dst = core.AppendJSONString(dst, req.Placer)
	}
	if req.Router != "" {
		dst = append(comma(dst), `"router":`...)
		dst = core.AppendJSONString(dst, req.Router)
	}
	if req.Utilization != 0 {
		dst = append(comma(dst), `"utilization":`...)
		dst, err = core.AppendJSONFloat(dst, req.Utilization)
		if err != nil {
			return nil, err
		}
	}
	if req.Replicas != 0 {
		dst = append(comma(dst), `"replicas":`...)
		dst = strconv.AppendInt(dst, int64(req.Replicas), 10)
	}
	if req.To != "" {
		dst = append(comma(dst), `"to":`...)
		dst = core.AppendJSONString(dst, req.To)
	}
	if req.Scale != 0 {
		dst = append(comma(dst), `"scale":`...)
		dst, err = core.AppendJSONFloat(dst, req.Scale)
		if err != nil {
			return nil, err
		}
	}
	if req.Labels {
		dst = append(comma(dst), `"labels":true`...)
	}
	return append(dst, '}'), nil
}

// keyFrames pools the length-framed hash inputs cacheKey builds. It is
// its own pool (rather than part of the reqState) because batch items
// compute keys concurrently under one request.
var keyFrames = sync.Pool{New: func() any { return new([]byte) }}

// cacheKey derives the content address of one computation: SHA-256 over
// the operation, the canonicalized request body, and the resolved seed.
// Canonicalization replays the decoded envelope through
// appendRequestJSON, so formatting differences and unknown fields —
// which cannot influence the output — map to the same address, while
// every field that does influence it (device source bytes, engine
// options, render options) is covered. The seed component folds the
// explicit request seed or, for derived seeds, the server's base seed
// (the device name completing the derivation is already pinned by the
// canonical body), so servers seeded differently never share entries.
// The envelope is encoded straight into the pooled hash input, its
// length prefix patched in afterwards, so the derivation is a single
// pass whose only allocation is the returned key string.
func (s *Server) cacheKey(op string, req *request) string {
	buf := keyFrames.Get().(*[]byte)
	defer keyFrames.Put(buf)
	frame := cache.AppendPartString((*buf)[:0], op)
	at := len(frame)
	frame = append(frame, make([]byte, 8)...)
	if env, err := appendRequestJSON(frame, req); err == nil {
		frame = env
	} else {
		// The envelope round-trips by construction; treat failure as a
		// never-matching key rather than a request failure.
		frame = fmt.Appendf(frame, "unmarshalable:%p", req)
	}
	binary.LittleEndian.PutUint64(frame[at:], uint64(len(frame)-at-8))
	seed := req.Seed
	if seed == 0 {
		seed = par.DeriveSeed(s.cfg.BaseSeed, req.Bench)
	}
	var sb [8]byte
	binary.LittleEndian.PutUint64(sb[:], seed)
	frame = cache.AppendPart(frame, sb[:])
	// The replica count selects a different annealing search, so for the
	// operations it reaches it must be part of the address. It folds in
	// only when a multi-replica schedule is effective: single-replica
	// keys stay byte-for-byte what they were before the knob existed, so
	// existing entries (and servers that never set it) are undisturbed.
	// Worker counts never appear in any key: for a fixed replica count
	// the artifact is byte-identical at any width.
	if n := s.replicas(req); n > 1 && (op == opPNR || op == opRender) {
		var rb [8]byte
		binary.LittleEndian.PutUint64(rb[:], uint64(n))
		frame = cache.AppendPart(frame, rb[:])
	}
	*buf = frame
	return cache.KeyFrom(frame)
}
