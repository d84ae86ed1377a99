package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cache"
)

// Transparent response compression. A wrapped endpoint whose client
// offers Accept-Encoding: gzip gets its body compressed through a pooled
// gzip.Writer at BestSpeed; the uncompressed bytes fed to the compressor
// are exactly the bytes an identity response would carry, so
// decompressing a gzip response reproduces the identity response
// byte-for-byte (TestGzipByteIdentity). The SSE job event stream opts
// out (wrapOpts.noCompress): its value is incremental delivery, which
// compression buffering would defeat. /metrics and /debug/trace sit
// outside the middleware entirely and are never compressed.
//
// The pipeline endpoints skip the streaming compressor for successful
// cached responses: a key's bytes never change, so its gzip encoding is
// computed once, stored in the result cache as a derived entry, and
// replayed verbatim (gzipVariant, gzipWriter.writeEncoded).

var gzipPool = sync.Pool{New: func() any {
	w, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed)
	return w
}}

var (
	gzipEncodingVal = []string{"gzip"}
	varyAcceptVal   = []string{"Accept-Encoding"}
)

// acceptsGzip reports whether the request's Accept-Encoding header
// accepts gzip, following RFC 9110 §12.5.3: an explicit gzip member
// decides by its own quality wherever it appears, and only in its
// absence does a "*" member stand in for it. A member is refused only by
// a quality of zero; an unparseable q is ignored.
func acceptsGzip(r *http.Request) bool {
	ae := r.Header.Get("Accept-Encoding")
	wildcard := false
	for ae != "" {
		var member string
		member, ae, _ = strings.Cut(ae, ",")
		name, params, _ := strings.Cut(member, ";")
		name = strings.TrimSpace(name)
		switch {
		case strings.EqualFold(name, "gzip"):
			return !zeroQuality(params)
		case name == "*":
			wildcard = !zeroQuality(params)
		}
	}
	return wildcard
}

// zeroQuality reports whether a member's ";"-separated parameters carry
// a q weight of zero, looking at every parameter rather than the first.
func zeroQuality(params string) bool {
	for params != "" {
		var p string
		p, params, _ = strings.Cut(params, ";")
		k, v, _ := strings.Cut(p, "=")
		if !strings.EqualFold(strings.TrimSpace(k), "q") {
			continue
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		return err == nil && q == 0
	}
	return false
}

// gzipWriter funnels a handler's writes through a gzip stream into the
// status-capturing writer. The Content-Encoding and Vary headers are set
// by the middleware before the handler runs, so whichever write flushes
// the header block first — the handler's, an error body's, or the
// compressor's own close — the response is consistently labeled. The
// pooled compressor is taken on the first streaming write, so a response
// replayed through writeEncoded never touches the pool.
type gzipWriter struct {
	sw *statusWriter
	gz *gzip.Writer // nil until the first streaming write
	// encoded marks a body written pre-compressed by writeEncoded; the
	// response then needs no closing gzip stream of its own.
	encoded bool
}

func (g *gzipWriter) Header() http.Header { return g.sw.Header() }

func (g *gzipWriter) WriteHeader(code int) { g.sw.WriteHeader(code) }

func (g *gzipWriter) Write(b []byte) (int, error) { return g.stream().Write(b) }

// Flush drains the compressor and flushes the connection, preserving
// http.Flusher for compressed endpoints.
func (g *gzipWriter) Flush() {
	_ = g.stream().Flush()
	g.sw.Flush()
}

// stream returns the response's compressor, taking it from the pool on
// first use.
func (g *gzipWriter) stream() *gzip.Writer {
	if g.gz == nil {
		g.gz = gzipPool.Get().(*gzip.Writer)
		g.gz.Reset(g.sw)
	}
	return g.gz
}

// writeEncoded sends an already gzip-encoded body as a 200 with its
// Content-Length, bypassing the compressor. It must be the response's
// only write.
func (g *gzipWriter) writeEncoded(body []byte) error {
	g.encoded = true
	g.sw.Header()["Content-Length"] = []string{strconv.Itoa(len(body))}
	g.sw.WriteHeader(http.StatusOK)
	_, err := g.sw.Write(body)
	return err
}

// finish ends the response's gzip stream and returns the compressor to
// the pool. The normal path flushes the stream's trailer with Close (a
// failure means the client is gone, which the status already reflects);
// a response that streamed nothing still gets its empty gzip stream, as
// its Content-Encoding promises. An aborted (panicking) handler instead
// gets its mid-stream compressor state discarded with Reset before the
// writer is pooled: without that, a later request could Get a writer
// still holding buffered state and a dangling output reference.
func (g *gzipWriter) finish(aborted bool) {
	if g.encoded || (aborted && g.gz == nil) {
		return
	}
	gz := g.stream()
	if aborted {
		gz.Reset(io.Discard)
	} else {
		_ = gz.Close()
	}
	gzipPool.Put(gz)
	g.gz = nil
}

// Note the deliberate absence of Unwrap: exposing the underlying writer
// to http.NewResponseController would let a flush bypass the compressor
// and interleave raw bytes into the gzip stream.
var _ http.Flusher = (*gzipWriter)(nil)

// runHandler invokes the endpoint handler with the gzip stream's
// completion pinned to a defer, so a pooled compressor returns to the
// pool exactly once on every exit path; a panic continues to net/http's
// connection recovery after the compressor is recycled.
func runHandler(ctx context.Context, h apiHandler, hw http.ResponseWriter, r *http.Request, gzw *gzipWriter) {
	if gzw != nil {
		defer func() {
			p := recover()
			gzw.finish(p != nil)
			if p != nil {
				panic(p)
			}
		}()
	}
	if err := h(hw, r); err != nil {
		writeError(ctx, hw, r, err)
	}
}

// gzipKeySuffix derives the cache key of an entry's stored gzip
// encoding from the entry's own key. The suffix keeps variant keys
// outside the hex address space of primary entries.
const gzipKeySuffix = "+gzip"

// gzipVariant returns the gzip encoding of ent, the entry stored under
// key, from the result cache, compressing it on the first request. The
// variant is an ordinary cache entry — bounded, evicted, and coalesced
// like any other — but its probes feed no cache outcome metric: the
// request's outcome is the primary entry's.
func (s *Server) gzipVariant(ctx context.Context, key string, ent cache.Entry) ([]byte, error) {
	// Keys are hex SHA-256, so the derived key fits the stack buffer and
	// the warm probe allocates nothing.
	var kb [2*sha256.Size + len(gzipKeySuffix)]byte
	vkey := append(append(kb[:0], key...), gzipKeySuffix...)
	if v, ok := s.cache.LookupBytes(vkey); ok {
		return v.Body, nil
	}
	v, _, err := s.cache.Do(ctx, string(vkey), func() (cache.Entry, error) {
		return cache.Entry{ContentType: ent.ContentType, Body: gzipEncode(ent.Body)}, nil
	})
	return v.Body, err
}

// gzipEncode compresses body in one Write and Close at BestSpeed —
// exactly what the streaming path does with a handler's single body
// write — so a replayed encoding is byte-identical on the wire to a
// freshly streamed one.
func gzipEncode(body []byte) []byte {
	var buf bytes.Buffer
	gz := gzipPool.Get().(*gzip.Writer)
	gz.Reset(&buf)
	_, _ = gz.Write(body)
	_ = gz.Close()
	gz.Reset(io.Discard)
	gzipPool.Put(gz)
	return bytes.Clone(buf.Bytes())
}
