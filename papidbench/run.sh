#!/usr/bin/env bash
# Builds papid and the papidbench load generator from this checkout,
# then runs the generator with the given arguments (see README.md).
# Every build artefact, cache and scratch file stays under
# .bench_build/papidbench at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/papidbench"
mkdir -p "$build/tmp" "$build/gopath" "$build/xdg-config" "$build/xdg-cache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/xdg-config" \
	XDG_CACHE_HOME="$build/xdg-cache" GOTOOLCHAIN=local GOFLAGS= GOENV=off
go -C "$root" build -o "$build/papid" ./cmd/papid
go -C "$here" build -o "$build/papidbench" .
exec "$build/papidbench" -root "$root" -papid "$build/papid" -work "$build" "$@"
