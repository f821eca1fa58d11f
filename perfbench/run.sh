#!/usr/bin/env bash
# Builds the repository benchmark from the sources of the checkout it
# is started in, then runs it with the given arguments. Start it from
# the repository root:
#
#   bash perfbench/run.sh --workload websearch-leafspine --seed 1 --seconds 30 --trace 0
#
# Every build product, Go cache entry, CPU profile and span log stays
# under .bench_build/ in that checkout. Outside a full checkout (no
# go.mod beside perfbench/) the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
mkdir -p "$out/config/go/telemetry"
# Keep the go command's telemetry off and its files inside the checkout.
echo off > "$out/config/go/telemetry/mode"
export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GO111MODULE=on
export TMPDIR="$out/tmp"
mkdir -p "$TMPDIR"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/perfbench.d" "$@"
