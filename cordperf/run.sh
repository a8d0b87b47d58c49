#!/usr/bin/env bash
# Builds the cordperf benchmark from this checkout and runs it with the
# given arguments, e.g. from the repository root:
#
#   bash cordperf/run.sh --workload paper-apps --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
(cd "$(dirname "$0")" && go build -o "$out/cordperf" .)
exec "$out/cordperf" "$@"
