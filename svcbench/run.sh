#!/usr/bin/env bash
# Builds the tracking-service benchmark from the checkout's sources and
# runs it; every argument is passed through (see svcbench/README.md).
# Run it from the repository root:
#
#   bash svcbench/run.sh --workload track-paper --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

(
	cd "$here"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" HOME="$out" GOFLAGS=-mod=mod \
		GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
		go build -o "$out/svcbench" .
)
export TMPDIR="$out/tmp"
exec "$out/svcbench" --workdir "$out" "$@"
