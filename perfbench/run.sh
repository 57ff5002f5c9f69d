#!/usr/bin/env bash
# Builds the perfbench program from the checkout's sources and runs it with
# the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload exact-basket --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, scratch
# directories, per-seed check records) stays under .perfbench/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -state "$out" "$@"
