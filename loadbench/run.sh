#!/usr/bin/env bash
# Builds parchmint-serve and the load generator from the checkout this
# script sits in, then runs one benchmark workload. Run it from the
# repository root; every argument is passed to the load generator:
#
#   bash loadbench/run.sh --workload warm_hits --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and run state stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/bin/parchmint-serve" ./cmd/parchmint-serve
(cd loadbench && go build -o "$out/bin/loadbench" .)
exec "$out/bin/loadbench" -server "$out/bin/parchmint-serve" -workdir "$out/loadbench" \
	-manifest loadbench/manifest.json "$@"
