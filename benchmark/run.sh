#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout's
# root and runs it there with the arguments given. The Go build cache
# lives in .bench_build/ too, so nothing outside the checkout is written.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -buildvcs=false -o "$build/mermaid-benchmark" .)
cd "$root"
exec "$build/mermaid-benchmark" "$@"
