#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage (from the repository root): bash benchmark/run.sh [flags]
# Everything the build writes (Go build cache and the toolchain's config
# directory included) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# Telemetry off before the first go command: with a fresh config directory the
# toolchain otherwise detaches a counter-upload child that outlives the build.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
cd "$root"
go build -o "$out/dqmxbench" ./benchmark >&2
exec "$out/dqmxbench" "$@"
