#!/usr/bin/env bash
# Builds the benchmark and the lapccnode worker from source, then runs it:
#
#   bash perfbench/run.sh --workload solve-hot --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build product and the Go build cache
# live under .bench_build/ in the working directory, so a run reads and
# writes nothing outside it. A failed build exits non-zero without printing
# a result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 3
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/cache" "$build/config" "$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOTMPDIR="$build/tmp"
export GOCACHE="$build/cache/go-build" GOMODCACHE="$build/cache/mod" GOPATH="$build/cache/gopath"
export XDG_CONFIG_HOME="$build/config" HOME="$build/config"

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
(cd "$root" && go build -o "$build/bin/lapccnode" ./cmd/lapccnode)

exec "$build/bin/perfbench" --node-bin "$build/bin/lapccnode" "$@"
