#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every
# build and run artifact stays under .bench_build at the checkout root.
#
#   bash perfbench/run.sh --workload tpch-adhoc --seed 1 --seconds 15 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off

# The revision is recorded when the checkout is a git work tree of its
# own; the source digest identifies the built code either way.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
source="$(cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" -commit "$commit" -source "$source" "$@"
