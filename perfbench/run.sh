#!/usr/bin/env bash
# Builds the programs under test and perfbench itself from source, then
# runs perfbench with the given arguments. Run it from the root of
# a checkout:
#
#	bash perfbench/run.sh --workload kv-zipf --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the binaries, the
# memnode shared-memory sockets and the Chrome-trace files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/bin"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export CGO_ENABLED=0

# The perfbench module replaces "mage" with the checkout root, so the
# binaries under test are built from the same tree as perfbench.
go -C perfbench build -o "$out/bin/" mage/cmd/memnode mage/cmd/magecache mage/cmd/magesim .

# Children inherit TMPDIR: memnode puts its shm sockets there. The path
# is relative so the socket names stay short whatever the checkout path.
export TMPDIR=.bench_build/tmp
exec "$out/bin/perfbench" "$@"
