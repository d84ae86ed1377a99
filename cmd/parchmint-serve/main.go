// Command parchmint-serve runs the benchmark suite's pipeline as a
// concurrent HTTP JSON service: validation, MINT conversion,
// place-and-route, characterization, and SVG rendering, plus the suite
// device catalog, health, and Prometheus metrics. Pipeline work is bounded
// by a worker gate and seeded deterministically, so identical request
// bodies produce byte-identical responses at any worker count — which also
// makes results content-addressable: repeated requests replay from an LRU
// result cache (X-Parchmint-Cache: hit|miss|coalesced), and admission
// sheds with 429 + Retry-After instead of queueing past -queue-depth.
//
// Usage:
//
//	parchmint-serve [-addr :8080] [-j N] [-seed N] [-max-body BYTES]
//	                [-timeout D] [-cache-bytes BYTES] [-queue-depth N]
//	                [-port-file PATH] [-log-format text|json]
//	                [-trace-events N] [-replicas N]
//	                [-journal PATH] [-job-timeout D] [-max-jobs N]
//	                [-flight-requests N] [-trace-sample P]
//	                [-peers URL,URL,... -self URL] [-peer-health D]
//
// Endpoints:
//
//	POST   /v1/validate    semantic + schema diagnostics
//	POST   /v1/convert     MINT <-> ParchMint JSON
//	POST   /v1/pnr         place-and-route, metrics + annotated device
//	POST   /v1/stats       characterization profile (paper Table 1)
//	POST   /v1/render.svg  SVG drawing
//	POST   /v1/batch       many pipeline requests in one body, fanned through the pool
//	POST   /v1/jobs        submit any operation as a durable async job
//	GET    /v1/jobs        job listing (?status= filters)
//	GET    /v1/jobs/{id}   job status document
//	GET    /v1/jobs/{id}/result  completed job's bytes (X-Parchmint-Cache outcome)
//	GET    /v1/jobs/{id}/events  live progress as Server-Sent Events
//	DELETE /v1/jobs/{id}   cancel a queued or running job
//	GET    /v1/bench       suite catalog ({items, total}; ?prefix= filters)
//	GET    /v1/bench/{name} one benchmark's ParchMint document
//	GET    /healthz        liveness, build info, uptime
//	GET    /metrics        Prometheus text metrics (?openmetrics=1 for exemplars)
//	GET    /debug/trace    span ring buffer as Chrome trace_event JSON (?n= last n)
//	GET    /debug/requests tail-sampled request flight records (?n= last n)
//	GET    /debug/requests/{id}  one flight record with its span tree
//
// Every request carries W3C trace context: an inbound traceparent header
// is continued (same trace-id, fresh span-id), a missing or malformed one
// is replaced by a fresh root, and the resulting traceparent is echoed on
// the response and stamped into spans, logs, error bodies, job journal
// records, and flight-recorder entries. Response bytes never change.
//
// With -journal, job submissions append to a JSONL transition log that is
// replayed on boot: completed jobs answer from their journaled bytes
// (a durable cache hit) and interrupted jobs re-run deterministically.
//
// With -peers/-self, the node joins a consistent-hash cluster: every
// request is sharded by its content address, requests landing on a
// non-owner take one forwarding hop to the owner (X-Parchmint-Shard names
// it, X-Parchmint-Forwarded marks the hop), cache misses probe the
// owner's cache before computing, and job submissions route to the key's
// owner so its journal is a complete handoff unit. Determinism makes all
// of it transparent: response bytes are identical wherever they compute.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/serve"
)

// flagOrDisabled maps the CLI's "0 disables" convention onto the Config's
// "negative disables, 0 means default" convention.
func flagOrDisabled(n int) int {
	if n <= 0 {
		return -1
	}
	return n
}

// flagOrNever does the same for the sampling probability: 0 on the
// command line means "never keep ordinary requests", which Config spells
// as a negative value (0 would select the default).
func flagOrNever(p float64) float64 {
	if p <= 0 {
		return -1
	}
	return p
}

func main() {
	addr := flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	workers := flag.Int("j", 0, "max concurrent pipeline computations (0 = NumCPU)")
	seed := flag.Uint64("seed", serve.BaseSeedDefault, "base seed for derived per-device seeds")
	maxBody := flag.Int64("max-body", 8<<20, "request body size limit in bytes")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request pipeline timeout")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "result cache size in bytes (0 disables caching)")
	queueDepth := flag.Int("queue-depth", 256, "max requests queued for a worker slot before shedding with 429 (0 = unbounded)")
	portFile := flag.String("port-file", "", "write the bound port number to this file (for scripts using :0)")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (profiling only; keep off on untrusted networks)")
	logFormat := flag.String("log-format", "text", "request log format: text or json")
	traceEvents := flag.Int("trace-events", 0, "span ring buffer capacity for /debug/trace (0 = default)")
	replicas := flag.Int("replicas", 0, "default annealing replica count for pnr requests (<2 = single-replica; requests may override with \"replicas\")")
	flightRequests := flag.Int("flight-requests", obs.DefaultFlightRequests, "flight recorder capacity for /debug/requests (0 disables the recorder)")
	traceSample := flag.Float64("trace-sample", obs.DefaultTraceSample, "probability an ordinary request is kept by the flight recorder (errors, shed, and slow requests are always kept; 0 = only those)")
	journalPath := flag.String("journal", "", "append job transitions to this JSONL file and replay it on boot (empty = in-memory jobs only)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job execution timeout (0 = unbounded)")
	maxJobs := flag.Int("max-jobs", 0, "max retained jobs before oldest terminal ones are evicted (0 = default)")
	peersFlag := flag.String("peers", "", "comma-separated full cluster membership as absolute URLs, including this node (empty = single-node)")
	selfFlag := flag.String("self", "", "this node's own peer URL, exactly as it appears in -peers")
	peerHealth := flag.Duration("peer-health", 0, "peer health probe interval (0 = default 2s)")
	flag.Parse()
	if *logFormat != "text" && *logFormat != "json" {
		cli.Fatalf("parchmint-serve: -log-format must be text or json, got %q", *logFormat)
	}
	var peers []string
	if *peersFlag != "" {
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
	}
	if (len(peers) > 0) != (*selfFlag != "") {
		cli.Fatalf("parchmint-serve: -peers and -self must be set together")
	}
	if len(peers) > 0 {
		if err := cluster.ValidateMembership(*selfFlag, peers); err != nil {
			cli.Fatalf("parchmint-serve: %v", err)
		}
	}

	var journal *job.Journal
	if *journalPath != "" {
		var err error
		journal, err = job.OpenJournal(*journalPath)
		if err != nil {
			cli.Fatalf("parchmint-serve: %v", err)
		}
		defer journal.Close()
		for _, d := range journal.DroppedLines() {
			fmt.Fprintf(os.Stderr, "parchmint-serve: journal %s: skipped unparseable line %d: %s\n", *journalPath, d.Line, d.Reason)
		}
	}

	s := serve.New(serve.Config{
		Workers:            *workers,
		BaseSeed:           *seed,
		MaxBodyBytes:       *maxBody,
		RequestTimeout:     *timeout,
		CacheBytes:         *cacheBytes,
		QueueDepth:         *queueDepth,
		Logger:             obs.NewLogger(*logFormat, os.Stderr),
		TraceEvents:        *traceEvents,
		Replicas:           *replicas,
		Journal:            journal,
		JobTimeout:         *jobTimeout,
		MaxJobs:            *maxJobs,
		FlightRequests:     flagOrDisabled(*flightRequests),
		TraceSample:        flagOrNever(*traceSample),
		Peers:              peers,
		Self:               *selfFlag,
		PeerHealthInterval: *peerHealth,
	})
	defer s.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Fatalf("parchmint-serve: %v", err)
	}
	if *portFile != "" {
		port := ln.Addr().(*net.TCPAddr).Port
		if err := os.WriteFile(*portFile, []byte(fmt.Sprintf("%d\n", port)), 0o644); err != nil {
			cli.Fatalf("parchmint-serve: writing port file: %v", err)
		}
	}

	handler := s.Handler()
	if *pprofFlag {
		// Profiling endpoints ride on the same listener so the hot paths
		// can be profiled in situ under real request load; the service
		// handler keeps everything that is not /debug/pprof/.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "parchmint-serve: listening on %s (workers=%d seed=%d)\n",
		ln.Addr(), *workers, *seed)

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			cli.Fatalf("parchmint-serve: %v", err)
		}
	case <-ctx.Done():
		stop()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			cli.Fatalf("parchmint-serve: shutdown: %v", err)
		}
	}
}
