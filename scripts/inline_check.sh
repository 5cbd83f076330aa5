#!/usr/bin/env bash
# Inline guard for the simulator's per-event hit paths. The memoized hit of
# an instruction fetch and of a load is a field compare that is only cheap
# when the compiler inlines it into the CPU's run loop; both methods sit
# near Go's inlining budget (80), so an innocent edit can push one over it
# and silently put a call back on every simulated event. Fails unless the
# compiler reports both inlined into internal/sim/cpu/run.go.
set -euo pipefail
cd "$(dirname "$0")/.."

report=$(go build -gcflags=-m ./internal/sim/cpu 2>&1)
runLines=$(grep -F "/run.go:" <<<"$report" || true)
status=0
for fn in 'mem.(*Hierarchy).FetchInstr' 'mem.(*Hierarchy).Load'; do
	if ! grep -qF ": inlining call to $fn" <<<"$runLines"; then
		echo "inline_check: $fn is not inlined into internal/sim/cpu/run.go" >&2
		status=1
	fi
done
exit $status
