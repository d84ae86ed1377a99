# CI entry points. `make check` is the full gate a commit should pass:
# build, gofmt and vet, tests, the race detector over the parallel
# loops, a short fuzz smoke of the parser and JSON codec, and a compile,
# vet and short test of the separate loadbench module.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test test-short race fuzz-smoke vet loadbench-check bench bench-pnr bench-serve bench-smoke artifacts serve-smoke cache-smoke jobs-smoke trace-smoke obs-smoke cluster-smoke hammer hammer-full check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fast loop: skips the full artifact regeneration and other slow sweeps.
test-short:
	$(GO) test -short ./...

# Race detector across the tree; -short keeps it focused on the
# concurrency-bearing paths (admission gate, device cache, parallel
# experiment loops) instead of re-running the slow artifact regeneration
# under the race scheduler.
race:
	$(GO) test -race -short ./...

# Full-fat race run, including the complete golden-artifact regeneration.
race-full:
	$(GO) test -race ./...

# Each fuzz target for a short burst; any crasher fails the target.
fuzz-smoke:
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) -run '^$$' ./internal/mint
	$(GO) test -fuzz FuzzDeviceJSON -fuzztime $(FUZZTIME) -run '^$$' ./internal/core
	$(GO) test -fuzz FuzzCanonCodec -fuzztime $(FUZZTIME) -run '^$$' ./internal/core
	$(GO) test -fuzz FuzzAppendCompactJSON -fuzztime $(FUZZTIME) -run '^$$' ./internal/core
	$(GO) test -fuzz FuzzRawValueCompact -fuzztime $(FUZZTIME) -run '^$$' ./internal/core
	$(GO) test -fuzz FuzzReadStringRaw -fuzztime $(FUZZTIME) -run '^$$' ./internal/core

# gofmt drift fails the gate before vet runs.
vet:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...

# loadbench is a separate module, so `go test ./...` never compiles it;
# this catches an API change that would break the benchmark. Its
# end-to-end smoke test skips itself under -short.
loadbench-check:
	cd loadbench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test -short ./...

# Hot-path benchmarks plus the ablation suite. For regression hunting use
# benchstat: run `go test -bench . -benchmem -count 10 -run '^$$'
# ./internal/place ./internal/route ./internal/pnr | tee old.txt` before a
# change, the same into new.txt after, then `benchstat old.txt new.txt`.
# The per-PR snapshot lives in BENCH_pnr.json (see bench-pnr).
bench: bench-pnr
	$(GO) test -bench . -benchtime 1x -run '^$$' .
	$(GO) test -bench . -benchmem -benchtime 3x -run '^$$' ./internal/place ./internal/route ./internal/pnr

# Regenerate the committed perf snapshot. parchmint-perf preserves the
# existing file's "baseline" block, so the before/after trajectory of the
# current optimization round survives regeneration. REPLICAS sets the
# annealing replica count for the paired seq/par flow kernels and is
# recorded in the snapshot's environment block.
REPLICAS ?= 2
bench-pnr:
	$(GO) run ./cmd/parchmint-perf -replicas $(REPLICAS) -o BENCH_pnr.json

# Regenerate the committed serving-tier snapshot: request→response kernels
# through the real handler stack (decode, execute, cache, encode) with no
# network or httptest overhead. Same baseline-preservation rules as
# bench-pnr.
bench-serve:
	$(GO) run ./cmd/parchmint-perf -suite serve -o BENCH_serve.json

# Determinism hammer under the race detector: full-width replicas and a
# starved CPU budget must reproduce the sequential golden byte for byte. -short trims the matrix to the small
# devices so the race scheduler stays affordable in the commit gate;
# hammer-full sweeps every bench device at replicas {1,2,4,8}.
hammer:
	$(GO) test -race -short -run TestDeterminismHammer ./internal/pnr

hammer-full:
	PARCHMINT_HAMMER_FULL=1 $(GO) test -run TestDeterminismHammer -timeout 60m ./internal/pnr

# CI gate: one quick iteration per kernel into a throwaway file, then
# schema-validate it and the committed snapshot. Catches a broken
# benchmark harness or a malformed BENCH_pnr.json without paying for a
# full measurement.
bench-smoke:
	@set -e; \
	tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/parchmint-perf -quick -o "$$tmp"; \
	$(GO) run ./cmd/parchmint-perf -check "$$tmp"; \
	$(GO) run ./cmd/parchmint-perf -suite serve -quick -o "$$tmp"; \
	$(GO) run ./cmd/parchmint-perf -check "$$tmp"; \
	$(GO) run ./cmd/parchmint-perf -check BENCH_pnr.json; \
	$(GO) run ./cmd/parchmint-perf -check BENCH_serve.json; \
	echo "bench-smoke: ok"

# Regenerate the committed golden artifacts (intentional drift only).
artifacts:
	$(GO) run ./cmd/parchmint-bench -exp all -outdir results

# Boot parchmint-serve on an ephemeral port, poke /healthz and one
# pipeline endpoint with curl, and shut it down. Catches wiring problems
# (routing, flags, listener, graceful shutdown) that handler-level tests
# cannot see. Skips quietly when curl is unavailable.
serve-smoke: build
	@command -v curl >/dev/null 2>&1 || { echo "serve-smoke: curl not found, skipping"; exit 0; }
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/parchmint-serve" ./cmd/parchmint-serve; \
	"$$tmp/parchmint-serve" -addr 127.0.0.1:0 -port-file "$$tmp/port" & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	for i in $$(seq 1 50); do [ -s "$$tmp/port" ] && break; sleep 0.1; done; \
	port=$$(cat "$$tmp/port"); \
	curl -sfS "http://127.0.0.1:$$port/healthz" | grep -q '"status":"ok"'; \
	curl -sfS "http://127.0.0.1:$$port/healthz?pretty=1" | grep -q '"status": "ok"'; \
	curl -sfS -X POST -d '{"bench":"rotary_pcr"}' "http://127.0.0.1:$$port/v1/validate" | grep -q '"ok":true'; \
	kill $$pid; wait $$pid 2>/dev/null || true; \
	echo "serve-smoke: ok"

# Boot parchmint-serve with the result cache on and send the same stats
# request twice: the first response must be a cache miss, the second a
# byte-identical hit. Catches cache wiring that tests with in-process
# handlers cannot see (header casing over real HTTP, flag plumbing).
# Skips quietly when curl is unavailable.
cache-smoke: build
	@command -v curl >/dev/null 2>&1 || { echo "cache-smoke: curl not found, skipping"; exit 0; }
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/parchmint-serve" ./cmd/parchmint-serve; \
	"$$tmp/parchmint-serve" -addr 127.0.0.1:0 -cache-bytes 67108864 -port-file "$$tmp/port" & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	for i in $$(seq 1 50); do [ -s "$$tmp/port" ] && break; sleep 0.1; done; \
	port=$$(cat "$$tmp/port"); \
	curl -sfS -D "$$tmp/h1" -o "$$tmp/b1" -X POST -d '{"bench":"rotary_pcr"}' "http://127.0.0.1:$$port/v1/stats"; \
	curl -sfS -D "$$tmp/h2" -o "$$tmp/b2" -X POST -d '{"bench":"rotary_pcr"}' "http://127.0.0.1:$$port/v1/stats"; \
	grep -qi '^x-parchmint-cache: miss' "$$tmp/h1"; \
	grep -qi '^x-parchmint-cache: hit' "$$tmp/h2"; \
	cmp -s "$$tmp/b1" "$$tmp/b2"; \
	kill $$pid; wait $$pid 2>/dev/null || true; \
	echo "cache-smoke: ok"

# Durability end to end: boot parchmint-serve with a job journal, submit
# a pnr job, stream its SSE events to the terminal "done" event, capture
# the result bytes, kill the server with SIGKILL (no shutdown, no flush
# beyond the journal's own fsyncs), reboot from the same journal, and
# assert the replayed job serves byte-identical bytes as a durable cache
# hit. This is the acceptance scenario the in-process tests approximate;
# here it crosses a real unclean process death. Skips without curl.
jobs-smoke: build
	@command -v curl >/dev/null 2>&1 || { echo "jobs-smoke: curl not found, skipping"; exit 0; }
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/parchmint-serve" ./cmd/parchmint-serve; \
	"$$tmp/parchmint-serve" -addr 127.0.0.1:0 -cache-bytes 67108864 \
		-journal "$$tmp/journal.jsonl" -port-file "$$tmp/port" & pid=$$!; \
	trap 'kill -9 $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	for i in $$(seq 1 50); do [ -s "$$tmp/port" ] && break; sleep 0.1; done; \
	port=$$(cat "$$tmp/port"); \
	curl -sfS -X POST -d '{"op":"pnr","bench":"rotary_pcr"}' \
		"http://127.0.0.1:$$port/v1/jobs" > "$$tmp/submit.json"; \
	id=$$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$$tmp/submit.json"); \
	[ -n "$$id" ] || { echo "jobs-smoke: no job id in $$(cat $$tmp/submit.json)"; exit 1; }; \
	curl -sfS -N --max-time 60 "http://127.0.0.1:$$port/v1/jobs/$$id/events" \
		| sed '/^event: done/,/^$$/{/^$$/q;}' > "$$tmp/events"; \
	grep -q '^event: done' "$$tmp/events"; \
	grep -q '"status":"completed"' "$$tmp/events"; \
	curl -sfS -o "$$tmp/b1" "http://127.0.0.1:$$port/v1/jobs/$$id/result"; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	"$$tmp/parchmint-serve" -addr 127.0.0.1:0 -cache-bytes 67108864 \
		-journal "$$tmp/journal.jsonl" -port-file "$$tmp/port2" & pid=$$!; \
	trap 'kill -9 $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	for i in $$(seq 1 50); do [ -s "$$tmp/port2" ] && break; sleep 0.1; done; \
	port=$$(cat "$$tmp/port2"); \
	curl -sfS -D "$$tmp/h2" -o "$$tmp/b2" "http://127.0.0.1:$$port/v1/jobs/$$id/result"; \
	grep -qi '^x-parchmint-cache: hit' "$$tmp/h2"; \
	cmp -s "$$tmp/b1" "$$tmp/b2"; \
	kill $$pid; wait $$pid 2>/dev/null || true; \
	echo "jobs-smoke: ok"

# Run the full flow with span tracing on, then validate the emitted
# Chrome trace_event JSON: well-formed, and every pipeline stage span
# present. Catches a telemetry layer that silently stopped recording.
trace-smoke:
	@set -e; \
	tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/parchmint-pnr -trace "$$tmp" -o /dev/null bench:rotary_pcr 2>/dev/null; \
	$(GO) run ./cmd/parchmint-perf -check-trace "$$tmp" \
		-trace-spans "bench.build,pnr.flow,place.anneal,route.astar,pnr.attach"; \
	echo "trace-smoke: ok"

# Distributed-trace round trip over real HTTP: boot parchmint-serve with
# the flight recorder keeping everything, send a fixed W3C traceparent,
# and assert the trace ID (with a fresh span ID) comes back on the
# response header, lands in the JSON request log, and is retrievable
# from /debug/requests — plus byte-identity with and without the header,
# and the OpenMetrics exemplar exposition. Skips without curl.
TRACE_TP = 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
TRACE_ID = 4bf92f3577b34da6a3ce929d0e0e4736
obs-smoke: build
	@command -v curl >/dev/null 2>&1 || { echo "obs-smoke: curl not found, skipping"; exit 0; }
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/parchmint-serve" ./cmd/parchmint-serve; \
	"$$tmp/parchmint-serve" -addr 127.0.0.1:0 -trace-sample 1 -log-format json \
		-port-file "$$tmp/port" 2> "$$tmp/log" & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	for i in $$(seq 1 50); do [ -s "$$tmp/port" ] && break; sleep 0.1; done; \
	port=$$(cat "$$tmp/port"); \
	curl -sfS -o "$$tmp/b2" -X POST -d '{"bench":"rotary_pcr"}' "http://127.0.0.1:$$port/v1/stats"; \
	curl -sfS -D "$$tmp/h1" -o "$$tmp/b1" -H 'traceparent: $(TRACE_TP)' \
		-X POST -d '{"bench":"rotary_pcr"}' "http://127.0.0.1:$$port/v1/stats"; \
	grep -qi '^traceparent: 00-$(TRACE_ID)-' "$$tmp/h1"; \
	grep -qi '^traceparent: $(TRACE_TP)' "$$tmp/h1" && { echo "obs-smoke: span id not re-minted"; exit 1; } || true; \
	cmp -s "$$tmp/b1" "$$tmp/b2" || { echo "obs-smoke: response bytes depend on traceparent"; exit 1; }; \
	grep -q '"trace":"$(TRACE_ID)"' "$$tmp/log"; \
	curl -sfS "http://127.0.0.1:$$port/debug/requests" | grep -q '"trace_id":"$(TRACE_ID)"'; \
	curl -sfS "http://127.0.0.1:$$port/metrics?openmetrics=1" > "$$tmp/om"; \
	grep -q '^# EOF' "$$tmp/om"; \
	grep -q 'trace_id="$(TRACE_ID)"' "$$tmp/om"; \
	kill $$pid; wait $$pid 2>/dev/null || true; \
	echo "obs-smoke: ok"

# Three-node consistent-hash cluster over real HTTP with a race-enabled
# binary: a request sent to the wrong shard is forwarded to the owner
# (X-Parchmint-Shard / X-Parchmint-Forwarded) and answers byte-identical
# to the owner's own response, the repeat answers from the owner's cache
# through the relay, a job submitted through the wrong shard routes to
# the owner, and after SIGKILLing the owner a replacement booted from
# its journal with the same -self serves the job's bytes as a durable
# hit. See scripts/cluster_smoke.sh for the full scenario. Skips quietly
# when curl is unavailable.
cluster-smoke: build
	@GO="$(GO)" ./scripts/cluster_smoke.sh

check: build vet loadbench-check test race hammer fuzz-smoke bench-smoke serve-smoke cache-smoke jobs-smoke trace-smoke obs-smoke cluster-smoke
