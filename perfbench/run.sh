#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# temporary files stay under .bench_build/ (or $CARGO_TARGET_DIR when
# set), so nothing is written outside the checkout. Without the
# repository's own go.mod one directory up, the build fails and the
# script exits non-zero before anything is measured.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

# GOPATH and XDG_CONFIG_HOME keep the module cache and the toolchain's
# telemetry counters inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
