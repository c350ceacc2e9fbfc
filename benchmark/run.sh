#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"): builds the benchmark from the
# checkout's source and runs it with the driver's arguments. Everything the
# Go toolchain writes — build cache, temporary files, its own config — is kept
# under .bench_build in the checkout, so a run reads and writes nothing
# outside it. In a directory without the repository's go.mod the script exits
# non-zero before it starts anything and without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f go.mod ]]; then
  echo "benchmark: no go.mod in $PWD: the program under test is not here" >&2
  exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false
# With telemetry in its default "local" mode the go command forks a detached
# child that outlives it (it writes the weekly counter report). Mode "off" is
# what `go telemetry off` writes; with it no run leaves a process behind.
echo off > "$build/config/go/telemetry/mode"
go build -o "$build/bin/swtnas-bench" ./benchmark
exec "$build/bin/swtnas-bench" -build-dir "$build" "$@"
