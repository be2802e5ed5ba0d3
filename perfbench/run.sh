#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload classify --seed 1 --seconds 25 --trace 0
#
# Every build product, cache and scratch file stays inside the checkout,
# under $CARGO_TARGET_DIR (default .bench_build). The build fails, and the
# script exits non-zero without printing a result, when the checkout does
# not hold the program's sources.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

# Keep the toolchain's cache, temporary files, configuration and telemetry
# inside the checkout, and keep it offline.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS=-mod=mod \
	GOPROXY=off GOTOOLCHAIN=local

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -work "$out" "$@"
