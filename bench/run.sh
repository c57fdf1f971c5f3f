#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ at the checkout root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off

# The commit is a header field only; a checkout without git history
# reports "unknown". The ceiling keeps git from searching above the
# checkout.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)

go build -C "$root/bench" -buildvcs=false -o "$build/bate-bench" .
BENCH_COMMIT="$commit" exec "$build/bate-bench" "$@"
