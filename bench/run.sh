#!/usr/bin/env bash
# Builds tsvbench from source and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload chip-random --seed 1 --seconds 26 --trace 0
#
# Every build artefact, Go cache and scratch file stays under bench/.build
# in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/bench/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go -C bench build -o "$build/tsvbench" ./cmd/tsvbench
exec "$build/tsvbench" -root "$root" -work "$build" "$@"
