#!/usr/bin/env bash
# Builds tlbbench from the sources of the checkout it runs in and runs it
# with the given arguments. Run it from the checkout root:
#
#   bash cmd/tlbbench/run.sh --workload paper-grid --seed 42 --seconds 30 --trace 0
#
# The Go build cache, module cache, home directory and binary all live
# under .bench_build/ in the checkout, so the run reads and writes nothing
# else; the first run compiles the standard library into that cache.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=vendor GOPROXY=off CGO_ENABLED=0

go build -o "$out/tlbbench" ./cmd/tlbbench
exec "$out/tlbbench" "$@"
