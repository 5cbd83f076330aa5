#!/usr/bin/env bash
# Builds the host-program benchmark from this checkout's source and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload table4 --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the compiler's temporary files all stay
# under .bench_build/ in the working directory; see perfbench/README.md.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
