package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/job"
	"repro/internal/mint"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/validate"
)

// StatusClientClosedRequest is the nonstandard (nginx-convention) status
// reported when the client cancels a request mid-pipeline.
const StatusClientClosedRequest = 499

// errBadRequest marks malformed request envelopes (as opposed to
// malformed device payloads, which carry *core.ParseError).
var errBadRequest = errors.New("bad request")

// errNotFound marks absent serve-owned resources (flight records) the
// way bench.ErrNotFound and job.ErrNotFound mark theirs.
var errNotFound = errors.New("not found")

// OverloadedError reports that admission shed the request instead of
// queueing it: the worker gate's wait queue was full, or the estimated
// queueing delay already exceeded the request's deadline. It maps to 429
// with a Retry-After header carrying the wait hint.
type OverloadedError struct {
	// RetryAfter is the client guidance surfaced in the Retry-After
	// header; always at least one second.
	RetryAfter time.Duration
	cause      error
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("service overloaded, retry in %s", e.RetryAfter)
}

// Code returns the stable machine-readable identifier for error bodies.
func (e *OverloadedError) Code() string { return "overloaded" }

// Unwrap exposes the underlying gate saturation error.
func (e *OverloadedError) Unwrap() error { return e.cause }

// retryAfterHint rounds a wait estimate up to whole seconds (the
// Retry-After unit), with a floor of one second so a cold estimator never
// tells clients to hammer immediately.
func retryAfterHint(estimate time.Duration) time.Duration {
	if estimate <= 0 {
		return time.Second
	}
	return time.Duration((estimate + time.Second - 1) / time.Second * time.Second)
}

// retryAfterMS is the single source both renderings of the retry hint
// derive from: the stored duration in milliseconds, floored to one second
// so no surface ever tells a client to retry immediately. The Retry-After
// header is retryAfterSeconds — the ceiling of this value in seconds —
// which pins header == ceil(retry_after_ms/1000) by construction; before
// this derivation existed, the header truncated (900ms rendered as
// "Retry-After: 0" while the body said 900) and the two agreed only when
// constructors happened to pre-round.
func (e *OverloadedError) retryAfterMS() int64 {
	if ms := e.RetryAfter.Milliseconds(); ms > 0 {
		return ms
	}
	return 1000
}

// retryAfterSeconds renders the hint for the Retry-After header: whole
// seconds, rounded up, never below 1.
func (e *OverloadedError) retryAfterSeconds() int {
	return int((e.retryAfterMS() + 999) / 1000)
}

// coded is implemented by the typed pipeline errors; Code() is the stable
// machine-readable identifier surfaced in error response bodies.
type coded interface{ Code() string }

// httpStatus maps a pipeline error onto an HTTP status. The typed error
// hierarchy does the classification: parse failures are the client's
// fault (400), semantically invalid devices — and devices with nothing
// for the requested output to hold (no layers for MINT, no features to
// draw) or whose routing grid would exceed geom.MaxGridCells — are
// unprocessable (422),
// unknown benchmarks are absent resources (404), oversized bodies are 413,
// shed admissions are 429, a job submission the journal could not record
// is 503, and context expiry distinguishes server deadline (504) from
// client cancellation (499). Anything else is a server fault (500).
func httpStatus(err error) int {
	var tooBig *http.MaxBytesError
	var over *OverloadedError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &over):
		return http.StatusTooManyRequests
	case errors.Is(err, bench.ErrNotFound), errors.Is(err, job.ErrNotFound),
		errors.Is(err, errNotFound):
		return http.StatusNotFound
	case errors.Is(err, job.ErrNotFinished):
		return http.StatusConflict
	case errors.Is(err, job.ErrTooManyJobs):
		return http.StatusTooManyRequests
	case errors.Is(err, job.ErrJournal):
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrParse), errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, validate.ErrInvalid), errors.Is(err, mint.ErrNoLayers),
		errors.Is(err, render.ErrNoFeatures), errors.Is(err, geom.ErrGridTooLarge):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// errorBody is the JSON rendering of a failed request: the human-readable
// message, the stable machine code, the request ID for log correlation,
// and — on overload — the retry hint in milliseconds, mirroring the
// Retry-After header for surfaces (batch slots, job documents) where
// headers do not exist.
type errorBody struct {
	Error        string `json:"error"`
	Code         string `json:"code,omitempty"`
	RequestID    string `json:"request_id,omitempty"`
	TraceID      string `json:"trace_id,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// errorCode resolves the stable machine code for err: the typed error's
// own Code() when it defines one, else a per-status fallback, so every
// non-2xx body carries a code.
func errorCode(err error, status int) string {
	var c coded
	switch {
	case errors.As(err, &c):
		return c.Code()
	case errors.Is(err, mint.ErrNoLayers):
		return "no-layers"
	case errors.Is(err, render.ErrNoFeatures):
		return "no-features"
	case errors.Is(err, geom.ErrGridTooLarge):
		return "grid-too-large"
	}
	switch status {
	case http.StatusBadRequest:
		return "bad-request"
	case http.StatusNotFound:
		return "not-found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "body-too-large"
	case http.StatusUnprocessableEntity:
		return "unprocessable"
	case http.StatusTooManyRequests:
		return "overloaded"
	case http.StatusServiceUnavailable:
		return "journal-unavailable"
	case StatusClientClosedRequest:
		return "client-closed"
	case http.StatusGatewayTimeout:
		return "deadline-exceeded"
	default:
		return "internal"
	}
}

// newErrorBody renders err into the standard error envelope, stamping the
// context's request ID and trace ID so clients can quote either back at
// the logs, the trace ring, or the flight recorder.
func newErrorBody(ctx context.Context, err error) errorBody {
	status := httpStatus(err)
	body := errorBody{
		Error:     err.Error(),
		Code:      errorCode(err, status),
		RequestID: obs.RequestID(ctx),
		TraceID:   obs.TraceID(ctx),
	}
	var over *OverloadedError
	if errors.As(err, &over) {
		body.RetryAfterMS = over.retryAfterMS()
	}
	return body
}

// writeError renders err as a JSON error response. A cancelled client is
// likely gone, but the write is attempted anyway — it is harmless and
// keeps the status visible to tests and proxies. Shed requests carry a
// Retry-After header so well-behaved clients back off instead of
// retrying into the same saturated gate.
func writeError(ctx context.Context, w http.ResponseWriter, r *http.Request, err error) {
	var over *OverloadedError
	if errors.As(err, &over) {
		w.Header().Set("Retry-After", strconv.Itoa(over.retryAfterSeconds()))
	}
	_ = writeJSON(w, r, httpStatus(err), newErrorBody(ctx, err))
}

// withTimeout bounds a request context; d <= 0 means no limit.
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}
