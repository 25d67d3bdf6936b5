#!/usr/bin/env bash
# Builds fibserve and the fibperf binary from source, then runs one
# benchmark run. Run it from the repository root:
#
#   bash fibperf/run.sh --workload dfz-small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the binaries, the Go build cache, and the
# generated tables and traces under .bench_build/work/. The last line
# of standard output is the run's JSON result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/bin/fibserve" ./cmd/fibserve
(cd fibperf && go build -o "$build/bin/fibperf" .)
exec "$build/bin/fibperf" -fibserve "$build/bin/fibserve" -work "$build/work" "$@"
