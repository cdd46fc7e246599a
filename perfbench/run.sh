#!/usr/bin/env bash
# Builds perfbench and cmd/knnserve from the tree under test, then runs
# perfbench with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload build --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build in the
# working directory: the Go build cache, temporary files, binaries, and
# the go command's config and telemetry files (HOME and XDG_CONFIG_HOME).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOPATH="$out/home/go"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

go -C perfbench build -o "$out/perfbench" .
go build -o "$out/knnserve" ./cmd/knnserve
exec "$out/perfbench" --knnserve "$out/knnserve" "$@"
