#!/usr/bin/env bash
# run.sh builds the aarcload benchmark from the tree it sits in and runs
# it with the given arguments, from the repository root:
#
#   bash cmd/aarcload/run.sh --workload hit-repeat --seed 1 --seconds 12 --trace 0
#   bash cmd/aarcload/run.sh -seed 1            # every workload, one child process each
#
# Everything the build and the run write (Go build cache, temp files, the
# durable-churn cache directory, the binary) stays under $CARGO_TARGET_DIR,
# default .bench_build, relative to the current directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
  GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
  GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$build/aarcload" .)
exec "$build/aarcload" "$@"
