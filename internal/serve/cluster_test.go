package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
)

// clusterNode is one in-process member of a test cluster, listening on a
// real loopback port (peer probes and forwards go over real HTTP).
type clusterNode struct {
	s   *Server
	url string
}

// startCluster boots n serve.Servers with a shared membership. Listeners
// are bound before any server is built, so every node knows the full peer
// list at construction.
func startCluster(t *testing.T, n int, mod func(*Config)) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		cfg := Config{
			Workers:            2,
			BaseSeed:           BaseSeedDefault,
			CacheBytes:         16 << 20,
			Peers:              append([]string(nil), urls...),
			Self:               urls[i],
			PeerHealthInterval: 100 * time.Millisecond,
		}
		if mod != nil {
			mod(&cfg)
		}
		s := New(cfg)
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		t.Cleanup(func() { ts.Close(); s.Close() })
		nodes[i] = &clusterNode{s: s, url: urls[i]}
	}
	return nodes
}

// postRaw issues a real HTTP POST and returns the response with its body
// fully read.
func postRaw(t *testing.T, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getRaw(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// discoverShard asks a node for a request's key and owner without
// computing anything.
func discoverShard(t *testing.T, node *clusterNode, submitBody string) (key, owner, route string) {
	t.Helper()
	resp, data := postRaw(t, node.url+"/internal/shard", submitBody, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/internal/shard: %d: %s", resp.StatusCode, data)
	}
	var shard struct {
		Key   string `json:"key"`
		Owner string `json:"owner"`
		Route string `json:"route"`
		Self  string `json:"self"`
	}
	if err := json.Unmarshal(data, &shard); err != nil {
		t.Fatal(err)
	}
	return shard.Key, shard.Owner, shard.Route
}

// pickNodes splits a cluster by role relative to owner: the owner node,
// and the non-owners in order.
func pickNodes(t *testing.T, nodes []*clusterNode, owner string) (ownerNode *clusterNode, others []*clusterNode) {
	t.Helper()
	for _, n := range nodes {
		if n.url == owner {
			ownerNode = n
		} else {
			others = append(others, n)
		}
	}
	if ownerNode == nil {
		t.Fatalf("owner %s is not a cluster member", owner)
	}
	return ownerNode, others
}

func TestClusterForwardsToOwnerAndServesPeerHits(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	reqBody := `{"bench":"rotary_pcr"}`
	_, owner, route := discoverShard(t, nodes[0], `{"op":"stats","bench":"rotary_pcr"}`)
	if route != owner {
		t.Fatalf("route %s != owner %s with all peers healthy", route, owner)
	}
	ownerNode, others := pickNodes(t, nodes, owner)
	relay, third := others[0], others[1]

	// A request landing on a non-owner is forwarded: shard + forwarded
	// headers mark the hop, and the owner computes the miss.
	resp1, body1 := postRaw(t, relay.url+"/v1/stats", reqBody, nil)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request: %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get(cluster.ShardHeader); got != owner {
		t.Errorf("shard header = %q, want owner %q", got, owner)
	}
	if got := resp1.Header.Get(cluster.ForwardedHeader); got != relay.url {
		t.Errorf("forwarded header = %q, want relaying node %q", got, relay.url)
	}
	if got := resp1.Header.Get(cacheHeader); got != "miss" {
		t.Errorf("first forwarded request cache = %q, want miss", got)
	}

	// Byte-identity across topologies: a fresh single-node server answers
	// with exactly the same bytes the cluster produced.
	solo := New(Config{Workers: 2, BaseSeed: BaseSeedDefault, CacheBytes: 16 << 20})
	defer solo.Close()
	w := do(t, solo.Handler(), http.MethodPost, "/v1/stats", reqBody)
	if w.Body.String() != string(body1) {
		t.Error("cluster-forwarded body differs from single-node body")
	}
	if h := w.Header().Get(cluster.ShardHeader); h != "" {
		t.Errorf("single-node response carries shard header %q", h)
	}
	if h := w.Header().Get(cluster.ForwardedHeader); h != "" {
		t.Errorf("single-node response carries forwarded header %q", h)
	}

	// Re-request through the same non-owner: the owner's cache answers.
	resp2, body2 := postRaw(t, relay.url+"/v1/stats", reqBody, nil)
	if got := resp2.Header.Get(cacheHeader); got != "hit" {
		t.Errorf("repeat forwarded request cache = %q, want hit", got)
	}
	if string(body2) != string(body1) {
		t.Error("repeat body differs from first body")
	}

	// Direct to the owner: a plain local hit, no forwarding involved.
	resp3, body3 := postRaw(t, ownerNode.url+"/v1/stats", reqBody, nil)
	if got := resp3.Header.Get(cacheHeader); got != "hit" {
		t.Errorf("owner-direct cache = %q, want hit", got)
	}
	if got := resp3.Header.Get(cluster.ForwardedHeader); got != "" {
		t.Errorf("owner-direct response claims a hop: %q", got)
	}
	if string(body3) != string(body1) {
		t.Error("owner-direct body differs")
	}

	// Loop guard: a request already marked as forwarded is served where
	// it lands. The third node misses locally, probes the owner's cache,
	// and adopts the entry — reported as a hit, same bytes.
	resp4, body4 := postRaw(t, third.url+"/v1/stats", reqBody,
		map[string]string{cluster.ForwardedHeader: "test-pin"})
	if got := resp4.Header.Get(cacheHeader); got != "hit" {
		t.Errorf("peer-probe cache = %q, want hit (adopted from owner)", got)
	}
	if got := resp4.Header.Get(cluster.ForwardedHeader); got != "" {
		t.Errorf("loop-guarded request was relayed again: %q", got)
	}
	if string(body4) != string(body1) {
		t.Error("peer-probe body differs")
	}
}

func TestClusterJobSubmitRoutesToOwnerAndReadsFanOut(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	submitBody := `{"op":"stats","bench":"rotary_pcr"}`
	key, owner, _ := discoverShard(t, nodes[0], submitBody)
	_, others := pickNodes(t, nodes, owner)
	relay := others[0]

	resp, data := postRaw(t, relay.url+"/v1/jobs", submitBody, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit: %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(cluster.ForwardedHeader); got != relay.url {
		t.Errorf("job submit forwarded header = %q, want %q", got, relay.url)
	}
	var doc jobDTO
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	// The forwarded canonical body derives the same content address the
	// relaying node computed — the whole point of re-encoding the
	// envelope instead of replaying client bytes.
	if doc.CacheKey != key {
		t.Errorf("owner derived key %s, relay derived %s", doc.CacheKey, key)
	}

	// Poll through the relaying node: its local store has no such job, so
	// the read fans out to the peers and relays the owner's document.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, data = getRaw(t, relay.url+"/v1/jobs/"+doc.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job get via relay: %d: %s", resp.StatusCode, data)
		}
		if got := resp.Header.Get(cluster.ForwardedHeader); got != relay.url {
			t.Fatalf("relayed job document missing forwarded header, got %q", got)
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Status == "completed" || doc.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %s", doc.ID, data)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if doc.Status != "completed" {
		t.Fatalf("job status = %s", doc.Status)
	}

	// The result read fans out the same way, and its bytes are exactly
	// the synchronous endpoint's.
	_, resultBody := getRaw(t, relay.url+"/v1/jobs/"+doc.ID+"/result")
	_, syncBody := postRaw(t, relay.url+"/v1/stats", `{"bench":"rotary_pcr"}`, nil)
	if string(resultBody) != string(syncBody) {
		t.Error("job result bytes differ from the synchronous endpoint's")
	}

	// An ID nobody holds is a 404 even after the fan-out.
	resp, _ = getRaw(t, relay.url+"/v1/jobs/job-nope-000042")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job via relay = %d, want 404", resp.StatusCode)
	}
}

func TestClusterPeerCacheProbeEndpoint(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	// An uncached key answers 404.
	resp, _ := getRaw(t, nodes[0].url+cluster.ProbePath+"/"+strings.Repeat("ab", 32))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("probe of uncached key = %d, want 404", resp.StatusCode)
	}
	// Compute on the owner, then probe it directly.
	key, owner, _ := discoverShard(t, nodes[0], `{"op":"validate","bench":"rotary_pcr"}`)
	ownerNode, _ := pickNodes(t, nodes, owner)
	_, direct := postRaw(t, ownerNode.url+"/v1/validate", `{"bench":"rotary_pcr"}`, nil)
	resp, probed := getRaw(t, ownerNode.url+cluster.ProbePath+"/"+key)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe of cached key = %d", resp.StatusCode)
	}
	if string(probed) != string(direct) {
		t.Error("probe bytes differ from the endpoint's response")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("probe content type = %q", ct)
	}
	// A gzip client stores the entry's encoding next to it; that encoding
	// is this node's wire format, never a result a peer may adopt.
	postRaw(t, ownerNode.url+"/v1/validate", `{"bench":"rotary_pcr"}`, map[string]string{"Accept-Encoding": "gzip"})
	if st := ownerNode.s.cache.Stats(); st.Entries != 2 {
		t.Fatalf("owner cache holds %d entries, want the result and its gzip encoding", st.Entries)
	}
	if resp, _ := getRaw(t, ownerNode.url+cluster.ProbePath+"/"+key+gzipKeySuffix); resp.StatusCode != http.StatusNotFound {
		t.Errorf("probe of a gzip encoding = %d, want 404", resp.StatusCode)
	}
}

func TestSingleNodeHasNoClusterSurface(t *testing.T) {
	s := New(Config{Workers: 2, BaseSeed: BaseSeedDefault, CacheBytes: 16 << 20})
	defer s.Close()
	h := s.Handler()
	w := do(t, h, http.MethodPost, "/v1/stats", `{"bench":"rotary_pcr"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("stats: %d", w.Code)
	}
	for _, hdr := range []string{cluster.ShardHeader, cluster.ForwardedHeader} {
		if v := w.Header().Get(hdr); v != "" {
			t.Errorf("single-node response carries %s: %q", hdr, v)
		}
	}
	// The peer-facing routes do not exist single-node.
	w = do(t, h, http.MethodPost, "/internal/shard", `{"op":"stats","bench":"rotary_pcr"}`)
	if w.Code != http.StatusNotFound {
		t.Errorf("/internal/shard single-node = %d, want 404", w.Code)
	}
	w = do(t, h, http.MethodGet, fmt.Sprintf("/internal/cache/%064d", 0), "")
	if w.Code != http.StatusNotFound {
		t.Errorf("/internal/cache single-node = %d, want 404", w.Code)
	}
}

func TestClusterOwnerDeathFailsOverDeterministically(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	reqBody := `{"bench":"rotary_pcr"}`
	_, owner, _ := discoverShard(t, nodes[0], `{"op":"validate","bench":"rotary_pcr"}`)
	ownerNode, others := pickNodes(t, nodes, owner)

	// Cache the result everywhere it will be needed, then kill the owner.
	_, before := postRaw(t, others[0].url+"/v1/validate", reqBody, nil)
	ownerNode.s.Close()
	// Mark the owner down on the survivors (the health loop would notice
	// within its interval; marking directly keeps the test instant).
	for _, n := range others {
		n.s.cluster.MarkDown(owner)
	}

	// The survivors agree on the same stand-in owner for the key, and the
	// request still answers byte-identically (relay already cached it
	// when it forwarded — a cold stand-in would recompute the same bytes).
	key, deadOwner, route := discoverShard(t, others[0], `{"op":"validate","bench":"rotary_pcr"}`)
	if deadOwner != owner {
		t.Fatalf("raw ring owner changed after death: %s -> %s", owner, deadOwner)
	}
	if route == owner {
		t.Fatalf("/internal/shard still routes to the dead owner %s", owner)
	}
	r0 := others[0].s.cluster.Route(key)
	r1 := others[1].s.cluster.Route(key)
	if r0 != r1 {
		t.Fatalf("survivors disagree on stand-in owner: %s vs %s", r0, r1)
	}
	if r0 == owner {
		t.Fatalf("stand-in owner is the dead node")
	}
	resp, after := postRaw(t, others[0].url+"/v1/validate", reqBody, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-death request: %d: %s", resp.StatusCode, after)
	}
	if string(after) != string(before) {
		t.Error("response bytes changed after owner death")
	}
}

// TestClusterRelayFallsBackOnBrokenPeerBody pins the forwarded-hop
// failure path: a key's owner that answers 200 and then hangs up
// mid-body, or answers with more than the body limit, must not reach the
// client as a truncated or oversized 200. The forwarding node discards
// the peer's answer and computes locally: correct bytes, a 200, no
// forwarded marker.
func TestClusterRelayFallsBackOnBrokenPeerBody(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply func(w http.ResponseWriter)
	}{
		{"hangup-mid-body", func(w http.ResponseWriter) {
			conn, buf, err := http.NewResponseController(w).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			defer conn.Close()
			buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"partial\":")
			buf.Flush()
		}},
		{"oversized-body", func(w http.ResponseWriter) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`"` + strings.Repeat("x", 4096) + `"`))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var forwarded atomic.Int32
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.URL.Path == "/healthz":
					w.Write([]byte(`{"status":"ok"}`))
				case strings.HasPrefix(r.URL.Path, "/v1/"):
					forwarded.Add(1)
					tc.reply(w)
				default: // peer cache probes: nothing stored here
					http.NotFound(w, r)
				}
			}))
			defer peer.Close()

			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			self := "http://" + ln.Addr().String()
			s := New(Config{
				Workers:            2,
				BaseSeed:           BaseSeedDefault,
				CacheBytes:         16 << 20,
				MaxBodyBytes:       1024,
				Peers:              []string{self, peer.URL},
				Self:               self,
				PeerHealthInterval: 100 * time.Millisecond,
			})
			ts := httptest.NewUnstartedServer(s.Handler())
			ts.Listener.Close()
			ts.Listener = ln
			ts.Start()
			defer func() { ts.Close(); s.Close() }()
			node := &clusterNode{s: s, url: self}

			// Find a benchmark whose stats key the broken peer owns.
			name := ""
			for _, b := range bench.Suite() {
				if _, owner, _ := discoverShard(t, node, `{"op":"stats","bench":"`+b.Name+`"}`); owner == peer.URL {
					name = b.Name
					break
				}
			}
			if name == "" {
				t.Fatal("the broken peer owns none of the suite's stats keys")
			}
			body := `{"bench":"` + name + `"}`
			want := do(t, newTestServer(2), http.MethodPost, "/v1/stats", body)

			resp, got := postRaw(t, node.url+"/v1/stats", body, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d: %s", resp.StatusCode, got)
			}
			if forwarded.Load() == 0 {
				t.Fatal("the request never reached the owning peer")
			}
			if string(got) != want.Body.String() {
				t.Errorf("body differs from a local computation:\n%.200q\nvs\n%.200q", got, want.Body)
			}
			if h := resp.Header.Get(cluster.ForwardedHeader); h != "" {
				t.Errorf("fallback response claims a hop: %q", h)
			}
			if h := resp.Header.Get(cacheHeader); h != "miss" {
				t.Errorf("%s = %q, want miss (computed locally)", cacheHeader, h)
			}
			if n := s.mForwardFallback.Value("body"); n != 1 {
				t.Errorf(`parchmint_forward_fallback_total{reason="body"} = %v, want 1`, n)
			}
			if n := s.mForwardFallback.Value("transport"); n != 0 {
				t.Errorf(`parchmint_forward_fallback_total{reason="transport"} = %v, want 0`, n)
			}
		})
	}
}
