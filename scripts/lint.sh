#!/usr/bin/env bash
# lint.sh — the repo's static-analysis gate.
#
# Builds aarcvet (the project's go/analysis suite of five analyzers:
# ctxflow, tierorder, shadow, plus the flow-sensitive lockorder and
# nilness) and runs it over the whole tree through the
# `go vet -vettool` protocol, alongside stock go vet and a gofmt check.
# Any finding fails; there is no baseline file — designed exceptions
# are waived in-source with //aarc: markers, so the tree is always
# clean or red, never "known dirty". The aarcvet step prints its wall
# time: about 2 s for the full tree on a warm build cache.
# Invariants a tier-1 test pins at every site are not checked here:
# search-method versions (TestMethodPins against
# internal/search/version.lock), canonical bytes, the alloc-free
# fingerprint GET and goroutine leaks (DESIGN.md §13).
#
# The binary lands in bin/aarcvet (gitignored) so CI can cache it
# between runs; `go build` is itself incremental, so a warm cache
# makes the build step free locally too.
#
# Usage: scripts/lint.sh
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  fail=1
fi

echo "== go vet (stock) =="
if ! go vet ./...; then
  fail=1
fi

echo "== aarcvet =="
vettool="$PWD/bin/aarcvet"
go build -o "$vettool" ./cmd/aarcvet
TIMEFORMAT='aarcvet: %R s'
if ! time go vet -vettool="$vettool" ./...; then
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "lint: findings above must be fixed (or waived in-source with a reasoned //aarc: marker)" >&2
  exit 1
fi
echo "lint: clean"
