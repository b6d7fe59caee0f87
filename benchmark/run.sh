#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash benchmark/run.sh -workload <name|all> -seed N [-seconds S] [-trace 0|1] [-json F] [-spans F]
#   bash benchmark/run.sh -compare A.json... -- B.json...
#
# Run it from the repository root. Every build output (binary, Go build
# cache, build temporaries, Go's own config and telemetry directory) stays
# under .bench_build, so a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/benchmark" && go build -o "$out/rcmbench" .)
exec "$out/rcmbench" "$@"
