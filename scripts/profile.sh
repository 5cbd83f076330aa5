#!/usr/bin/env bash
# Captures steady-state CPU and allocation profiles of the perf-critical
# workload: the Table-4-shaped parallel experiment runner (workers=1, so
# the profile reads as a single flame without scheduler noise).
#
# A profile of the whole benchmark would charge its first iteration's cold
# work (building and linking every version's program) to the sweep, so
# the script profiles twice from one test binary: a base run of one
# iteration, the warm-up, and a run of one plus STEADY iterations. Both
# tops below are the second profile minus the base (pprof -base), that is
# STEADY warmed sweeps. Artifacts land in profiles/ as pprof files:
#
#   profiles/parallel_cpu.pprof    profiles/parallel_alloc.pprof    (warm-up + STEADY)
#   profiles/base_cpu.pprof        profiles/base_alloc.pprof        (warm-up only)
#
# Inspect with `go tool pprof -top -base profiles/base_cpu.pprof
# profiles/parallel_cpu.pprof` (add -sample_index=alloc_space and the
# alloc pair for allocations). STEADY (default 6x) sets how many warmed
# sweeps are profiled; allocations are sampled every 4096 bytes.
set -euo pipefail
cd "$(dirname "$0")/.."

STEADY="${STEADY:-6x}"
mkdir -p profiles

go test -c -o profiles/repro.test .
capture() { # benchtime cpu-profile alloc-profile
	profiles/repro.test -test.run '^$' -test.bench 'BenchmarkRunParallel/workers=1$' \
		-test.benchtime "$1" -test.memprofilerate 4096 \
		-test.cpuprofile "$2" -test.memprofile "$3" >/dev/null
}
capture 1x profiles/base_cpu.pprof profiles/base_alloc.pprof
capture "$STEADY" profiles/parallel_cpu.pprof profiles/parallel_alloc.pprof
echo "wrote profiles/{base,parallel}_{cpu,alloc}.pprof"

echo "--- top CPU ($STEADY warmed sweeps) ---"
go tool pprof -top -nodecount=12 -base profiles/base_cpu.pprof \
	profiles/parallel_cpu.pprof | sed -n '1,20p'
echo "--- top alloc_space ($STEADY warmed sweeps) ---"
go tool pprof -top -nodecount=12 -sample_index=alloc_space \
	-base profiles/base_alloc.pprof profiles/parallel_alloc.pprof | sed -n '1,20p'
