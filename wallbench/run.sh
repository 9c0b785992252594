#!/usr/bin/env bash
# Builds the wall-clock benchmark from this checkout's sources and runs it,
# passing every argument through, e.g.
#
#   bash wallbench/run.sh --workload ssar-goroutine --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# traced runs' Perfetto files all stay under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build/wallbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C wallbench build -o "$out/wallbench" .
exec "$out/wallbench" --out "$out" "$@"
