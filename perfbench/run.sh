#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it with
# the given arguments from the checkout's root. The Go build cache and
# the binary live in .bench_build at that root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) 1>&2
cd "$root"
exec "$out/perfbench" "$@"
