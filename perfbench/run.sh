#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload get-small --seed 1 --seconds 25 --trace 0
#
# The build and its cache stay in .bench_build/ at the checkout root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
# Everything the go command writes (build cache, module path, telemetry
# and other user config) stays under $out.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off GOFLAGS= \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
