#!/usr/bin/env bash
# Builds ffbench from source and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload serve-4096 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (binary,
# Go build cache, temporary files, the go command's telemetry counters)
# stays in .bench_build at the root; the toolchain is the local one and
# no module is fetched.
set -euo pipefail

root=$(pwd)
if [ ! -f bench/go.mod ]; then
  echo "run.sh: run from the repository root" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off

(cd bench && go build -o "$out/ffbench" ./ffbench)
exec "$out/ffbench" "$@"
