#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it.
#
#   bash perfbench/run.sh --workload fig9-exact --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build products and the Go build cache
# go to .bench_build/ in the current directory, so nothing outside the
# checkout is read or written besides the Go toolchain itself.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# The go command keeps telemetry under the user config directory; point
# that, the module cache and GOPATH into the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed (run from the repository root)" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
