#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Everything
# the build and the run write (Go build cache, binary, temp dirs, traces)
# stays under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload grid-fresh --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --repeat 5 --seconds 20
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$(dirname "$here")/.bench_build
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/gopath" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
