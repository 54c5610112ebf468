#!/usr/bin/env bash
# Builds the benchmark and the decided daemon from the sources of the
# checkout it is run in, then runs the benchmark with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload sweep_hit --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -seed 1 -out results.json        # every workload
#   bash bench/run.sh -compare bench/baseline/a bench/baseline/b
#
# Everything the toolchain writes (build cache, binaries, temporary files)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go -C "$root/bench" build -o "$out/bench" .
go build -o "$out/decided" ./cmd/decided
exec "$out/bench" -decided "$out/decided" -workdir "$out/tmp" "$@"
