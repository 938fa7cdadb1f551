#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout this is
# run from, then runs it with the given arguments. Everything the build and
# the run write stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="${GOCACHE:-$out/gocache}" GOTOOLCHAIN=local
go build -C "$here" -o "$out/gmorph-bench" .
exec "$out/gmorph-bench" -scratch "$out" "$@"
