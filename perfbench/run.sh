#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root;
# every argument is passed on, e.g.
#
#   bash perfbench/run.sh --workload uniform-2048 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the benchmark's
# scratch state.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOPROXY=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .) >&2
exec "$out/perfbench-bin" --workdir "$out/perfbench" "$@"
