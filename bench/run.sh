#!/usr/bin/env bash
# Builds vnsbench from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Everything the Go
# toolchain writes (build cache, telemetry) is kept inside .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
env GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local \
	go -C "$here" build -o "$build/vnsbench" ./vnsbench
exec "$build/vnsbench" -out "$build" "$@"
