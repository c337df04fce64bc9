#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload apps-x4 --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and temporary file goes under the build
# directory ($CARGO_TARGET_DIR, default .bench_build), so the run reads
# and writes nothing outside the checkout. Without the repository's
# sources next to perfbench/ the build fails and so does the run.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -dir "$build" "$@"
