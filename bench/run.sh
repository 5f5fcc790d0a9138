#!/usr/bin/env bash
# Builds the benchmark once into .bench_build/ and runs it.
#
#   bench/run.sh --workload figs --seed 7 --seconds 12 --trace 0
#       one run (the command BENCHMARK.json names); arguments go to the binary
#   bench/run.sh
#       the whole ledger: untraced pass, traced pass, then -compare against
#       bench/baseline.json, saying per workload which metrics are within
#       bound, regressed or unresolved. About four minutes on two cores.
#
# Everything built or written lands under .bench_build/ in the checkout,
# the Go build cache included.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/bench"

# Keep the go tool inside the checkout: its cache, its telemetry counters, and
# no reading of a user-level go/env.
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local

cd "$root"

# Without the module there is nothing to build; say so before starting anything.
if [ ! -f go.mod ]; then
    echo "bench/run.sh: no go.mod in $root: the benchmark builds wearmem from source" >&2
    exit 1
fi

# Telemetry off before the first go command: with a fresh config directory the
# go tool otherwise detaches a counter-upload child that outlives this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

# Rebuild only when a source file is newer than the binary: a run should not
# pay for `go build` finding out nothing changed.
if [ ! -x "$bin" ] || [ -n "$(find . -path ./.bench_build -prune -o \
        \( -name '*.go' -o -name go.mod -o -name pins.json \) -newer "$bin" -print -quit)" ]; then
    mkdir -p "$build"
    start=$(date +%s%N)
    go build -o "$bin" ./bench
    ms=$(( ($(date +%s%N) - start) / 1000000 ))
    printf 'bench.build_s %d.%03d s\n' $((ms / 1000)) $((ms % 1000)) >&2
fi

if [ $# -gt 0 ]; then
    exec "$bin" "$@"
fi

# Ten seconds a run keeps two passes over six workloads inside four minutes.
out="$build/out"
"$bin" --workload all --seconds 10 --trace 1 --out "$out"
"$bin" --compare bench/baseline.json "$out/result.json"
