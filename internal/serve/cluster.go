package serve

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/cluster"
)

// The multi-node front door. With -peers/-self configured, every pipeline
// request and job submission is sharded by its content address: the
// consistent-hash ring names an owner, a request arriving at a non-owner
// takes exactly one forwarding hop (the forwarded header is the loop
// guard), and a node computing a cache miss first asks the owner whether
// it already holds the bytes. All of it is correct because results are
// pure functions of cache.Key — a peer's bytes are indistinguishable from
// locally recomputed ones — so clustering changes where work happens,
// never what the client receives. Without peers the server never consults
// the ring and its responses are byte-identical to the single-node build.

// forwardable reports whether this request should take its one allowed
// hop to owner: we are not the owner, and the request has not already
// been forwarded (a forwarded request is served where it lands, even if
// the health view shifted mid-flight — that is the loop guard).
func (s *Server) forwardable(r *http.Request, owner string) bool {
	if owner == s.cluster.Self() {
		return false
	}
	return len(r.Header[cluster.ForwardedHeader]) == 0
}

// relayHeaders are the response headers a forwarding hop copies from the
// peer's answer: the body's type, the cache outcome the owner observed,
// and backpressure guidance. Identity headers (X-Request-Id, Traceparent)
// are deliberately not copied — the client correlates with the node it
// spoke to, and the trace ID is shared across the hop anyway.
var relayHeaders = []string{"Content-Type", cacheHeader, "Retry-After"}

// relayResponse copies a peer's response — status, relay headers, body —
// to the client, stamping the forwarded header with this node's name so
// clients (and the smoke test) can see the hop. The body is read in full,
// up to the server's body limit, before anything is written: a peer that
// dies mid-body, or answers with more than the limit, makes it return
// false with the client's response untouched, so the caller can still
// answer some other way instead of relaying a truncated 200.
func (s *Server) relayResponse(w http.ResponseWriter, resp *http.Response) bool {
	limit := s.cfg.maxBody()
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil || int64(len(body)) > limit {
		return false
	}
	h := w.Header()
	for _, name := range relayHeaders {
		if vs := resp.Header[name]; len(vs) > 0 {
			h[name] = vs
		}
	}
	h[cluster.ForwardedHeader] = []string{s.cluster.Self()}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
	return true
}

// forwardTo relays the request body to owner and relays the peer's
// response back. False means the hop failed — at the transport level
// (after the client's retry budget) or while reading the peer's body —
// and nothing was written: the caller serves locally. Determinism makes
// that fallback safe, just a cache miss on the wrong node.
func (s *Server) forwardTo(w http.ResponseWriter, r *http.Request, owner, contentType string, body []byte) bool {
	resp, err := s.cluster.Forward(r.Context(), owner, r.Method, r.URL.Path, r.URL.RawQuery, contentType, body)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return s.relayResponse(w, resp)
}

// peerJobRelay resolves a job ID the local store does not know by asking
// each healthy peer in turn — job IDs are node-local, so a job submitted
// through one node (or forwarded to the key's owner) lives in exactly one
// store. A 404 from a peer means "not mine, keep looking"; any other
// answer is the owning node's and is relayed as-is, unless its body cannot
// be read whole, which counts as no answer. Returns false when no peer
// knows the job (the caller's local 404 stands).
func (s *Server) peerJobRelay(w http.ResponseWriter, r *http.Request) bool {
	if s.cluster == nil || len(r.Header[cluster.ForwardedHeader]) > 0 {
		return false
	}
	for _, peer := range s.cluster.Others() {
		if !s.cluster.Healthy(peer) {
			continue
		}
		resp, err := s.cluster.Forward(r.Context(), peer, r.Method, r.URL.Path, r.URL.RawQuery, "", nil)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		relayed := s.relayResponse(w, resp)
		resp.Body.Close()
		if relayed {
			return true
		}
	}
	return false
}

// handlePeerCache answers a peer's cache probe: the stored entry's bytes
// with their content type, or 404. Strictly Lookup-only — a probe must
// never trigger computation, or a miss would fan out work instead of
// concentrating it on the owner.
func (s *Server) handlePeerCache(w http.ResponseWriter, r *http.Request) error {
	key := r.PathValue("key")
	if strings.HasSuffix(key, gzipKeySuffix) {
		// Stored gzip encodings are this node's wire format, not results.
		return fmt.Errorf("%w: no cache entry for %s", errNotFound, key)
	}
	if s.cache == nil {
		return fmt.Errorf("%w: caching disabled on this node", errNotFound)
	}
	ent, ok := s.cache.Lookup(key)
	if !ok {
		return fmt.Errorf("%w: no cache entry for %s", errNotFound, key)
	}
	h := w.Header()
	h["Content-Type"] = contentTypeValue(ent.ContentType)
	w.WriteHeader(http.StatusOK)
	_, err := w.Write(ent.Body)
	return err
}

// shardResponse reports where a request's content address lives: the raw
// ring owner, the health-adjusted route (they differ only while the owner
// is down), and the answering node.
type shardResponse struct {
	Key   string `json:"key"`
	Owner string `json:"owner"`
	Route string `json:"route"`
	Self  string `json:"self"`
}

// handleShard computes a request's cache key and shard assignment without
// computing the result — the cluster's addressing oracle, used by the
// smoke test to find (and then deliberately avoid) a key's owner.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) error {
	body, err := requestBody(r)
	if err != nil {
		return badBody("request body", err)
	}
	var jreq jobSubmitRequest
	if err := parseJobSubmit(body, &jreq); err != nil {
		return badBody("request body", err)
	}
	op, err := operationByName(jreq.Op)
	if err != nil {
		return err
	}
	if err := op.validate(&jreq.request); err != nil {
		return err
	}
	key := s.cacheKey(op.Name, &jreq.request)
	return writeJSON(w, r, http.StatusOK, shardResponse{
		Key:   key,
		Owner: s.cluster.Owner(key),
		Route: s.cluster.Route(key),
		Self:  s.cluster.Self(),
	})
}

// jobSubmitBody rebuilds a canonical POST /v1/jobs body — the "op" member
// spliced ahead of the canonical envelope's fields — for the forwarding
// hop. Reconstructing from the decoded request (rather than replaying the
// client's raw bytes) keeps the forwarded body canonical, so the owner
// derives the same cache key this node did.
func jobSubmitBody(op string, envelope []byte) []byte {
	b := make([]byte, 0, len(envelope)+len(op)+10)
	b = append(b, `{"op":`...)
	b = strconv.AppendQuote(b, op)
	if len(envelope) > 2 {
		b = append(b, ',')
		b = append(b, envelope[1:]...)
	} else {
		b = append(b, '}')
	}
	return b
}
