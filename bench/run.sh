#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. The Go build cache, the go command's scratch space and
# its own state are kept under .bench_build, so nothing outside the checkout
# is written, and no process outlives this script: go's telemetry is turned
# off before go runs, because with it on the go command starts a detached
# child of itself the first time it sees a new configuration directory.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: no engine to measure: go.mod and internal/ are not in $(pwd)" >&2
	exit 1
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
build="$(cd "$build" && pwd)"
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go -C bench build -o "$build/genealog-bench" .
exec "$build/genealog-bench" "$@"
