#!/usr/bin/env bash
# Builds phonobench from this checkout's sources and runs it with the
# given arguments. Run it from the root of the checkout:
#
#   bash phonobench/run.sh --workload search_dense --seed 1 --seconds 25 --trace 0
#
# Build outputs and the Go build cache go under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

(cd "$(dirname "$0")" && go build -o "$out/phonobench" .) >&2
exec "$out/phonobench" "$@"
