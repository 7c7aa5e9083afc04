#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark and the daemons
# it drives from the checkout's sources, then runs one workload:
#
#   bash perf/run.sh --workload embed_cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — Go's caches included — stays
# under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bin/perf" .)
(cd "$root" && go build -o "$build/bin/" ./cmd/rcjd ./cmd/rcjrouter)
exec "$build/bin/perf" -root "$root" -bin "$build/bin" -work "$build/work" "$@"
