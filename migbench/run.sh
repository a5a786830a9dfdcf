#!/usr/bin/env bash
# Builds the migration benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash migbench/run.sh --workload dc-migrate --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build cache and the binary stay in
# .bench_build/ so nothing outside the checkout is read or written.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/migbench" && go build -o "$out/migbench" .)
exec "$out/migbench" "$@"
