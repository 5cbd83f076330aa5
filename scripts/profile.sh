#!/usr/bin/env bash
# Captures CPU and allocation profiles of the perf-critical workload: the
# Table-4-shaped parallel experiment runner (workers=1, so the profile
# reads as a single flame without scheduler noise). Artifacts land in
# profiles/ as pprof files:
#
#   profiles/parallel_cpu.pprof    profiles/parallel_alloc.pprof
#
# Inspect with `go tool pprof -top profiles/parallel_cpu.pprof` (add
# -sample_index=alloc_space for the alloc profile). BENCHTIME scales how
# long each capture runs; the fixed-iteration default keeps captures
# comparable across commits.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-3x}"
mkdir -p profiles

go test -run '^$' -bench 'BenchmarkRunParallel/workers=1$' -benchtime "$BENCHTIME" \
	-cpuprofile profiles/parallel_cpu.pprof \
	-memprofile profiles/parallel_alloc.pprof . >/dev/null
echo "wrote profiles/parallel_cpu.pprof profiles/parallel_alloc.pprof"

echo "--- top CPU (parallel runner) ---"
go tool pprof -top -nodecount=12 profiles/parallel_cpu.pprof | sed -n '1,20p'
