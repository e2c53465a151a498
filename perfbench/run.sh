#!/usr/bin/env bash
# run.sh — build ringd and the benchmark from source, then run one
# benchmark invocation. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload mixed-schemes --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the checkout (Go build cache, binaries, cluster data dirs, span
# files). The last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/bin" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off
export CGO_ENABLED=0

# The benchmark measures the program as built here, from the checkout's
# own sources; a build failure (for instance in a directory holding
# only the benchmark) exits non-zero before any result is printed.
go build -buildvcs=false -o "$out/bin/ringd" ./cmd/ringd >&2
(cd perfbench && go build -buildvcs=false -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -ringd "$out/bin/ringd" -work "$out" "$@"
