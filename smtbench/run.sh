#!/usr/bin/env bash
# Builds the benchmark driver and the smtsimd daemon from this checkout,
# then runs the driver with the given arguments, e.g.
#
#   bash smtbench/run.sh --workload sweep-mem --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the runs
# write stays under $CARGO_TARGET_DIR (default .bench_build) in the
# current directory: the Go build cache, the binaries and the scratch
# space of each run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)/smtbench"
mkdir -p "$build/bin" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOWORK=off
export GOTOOLCHAIN=local

go -C "$here" build -buildvcs=false -o "$build/bin/" . repro/cmd/smtsimd
exec "$build/bin/smtbench" -bin "$build/bin" -work "$build/work" "$@"
