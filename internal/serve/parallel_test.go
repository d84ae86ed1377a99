package serve

import (
	"bytes"
	"net/http"
	"testing"
)

// TestPNRReplicasSelectSearch pins the replica knob's semantics: the
// count is part of the request surface (different N, different search,
// different cache address; same N, byte-identical response), and
// single-replica keys match the pre-knob form exactly.
func TestPNRReplicasSelectSearch(t *testing.T) {
	srv := New(Config{Workers: 2, BaseSeed: BaseSeedDefault})
	h := srv.Handler()
	const plain = `{"bench":"aquaflex_3b"}`
	const rep = `{"bench":"aquaflex_3b","replicas":2}`
	base := do(t, h, http.MethodPost, "/v1/pnr", plain)
	first := do(t, h, http.MethodPost, "/v1/pnr", rep)
	again := do(t, h, http.MethodPost, "/v1/pnr", rep)
	if base.Code != http.StatusOK || first.Code != http.StatusOK || again.Code != http.StatusOK {
		t.Fatalf("status = %d / %d / %d", base.Code, first.Code, again.Code)
	}
	if !bytes.Equal(first.Body.Bytes(), again.Body.Bytes()) {
		t.Error("same replica count produced different responses")
	}

	// A server default of 1 (or 0) keeps the address servers used before
	// the knob existed; a multi-replica default moves pnr addresses.
	legacy := New(Config{Workers: 2, BaseSeed: BaseSeedDefault})
	single := New(Config{Workers: 2, BaseSeed: BaseSeedDefault, Replicas: 1})
	multi := New(Config{Workers: 2, BaseSeed: BaseSeedDefault, Replicas: 4})
	req := &request{Bench: "aquaflex_3b"}
	if legacy.cacheKey(opPNR, req) != single.cacheKey(opPNR, req) {
		t.Error("Replicas=1 changed the single-replica cache key")
	}
	if legacy.cacheKey(opPNR, req) == multi.cacheKey(opPNR, req) {
		t.Error("Replicas=4 shares a cache key with the single-replica flow")
	}
	// Replicas never move addresses of operations they cannot reach.
	if legacy.cacheKey(opStats, req) != multi.cacheKey(opStats, req) {
		t.Error("replica default leaked into the stats cache key")
	}
}
