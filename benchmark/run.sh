#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the build
# and the run write (Go build cache, binary, results) inside the checkout.
# Run from the repository root: bash benchmark/run.sh [flags].
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark/run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME moves the toolchain's own state (go/env, go/telemetry)
# into the checkout as well.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$build/aggbenchmark" .)
exec "$build/aggbenchmark" "$@"
