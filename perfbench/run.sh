#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload qs-anti --seed 1 --seconds 10 --trace 0
#
# Build cache, temporary files and traces stay under .bench_build/ in the
# checkout. The module needs nothing beyond the standard library, so the
# build never touches the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# The ceiling keeps git from reporting an enclosing repository's commit
# when the checkout itself has no history.
PERFBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT
exec "$out/perfbench" "$@"
