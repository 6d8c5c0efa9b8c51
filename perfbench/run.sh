#!/usr/bin/env bash
# Builds the perfbench binary from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload pingpong-small.shm --seed 1 --seconds 12 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/ in
# the checkout. The build needs the rest of the repository next to
# perfbench/ (go.mod replaces module mpicd with ../), so a directory that
# holds only the benchmark fails here with a non-zero exit.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
