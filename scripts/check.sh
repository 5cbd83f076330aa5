#!/usr/bin/env bash
# Tier-1 verification in one command: formatting, godoc coverage on the
# public surfaces, vet (toolchain and the repo's own determinism
# analyzers), build, the inline guard on the simulator's fetch and load
# hit paths, the full test suite under the race detector (the
# parallel runner and the fault-injection paths are both exercised), the
# fixed-seed fault-study, layout-lint, layout-search, and machine-matrix smoke tests
# (clean and fault-regime) with their golden-output diffs, the
# experiment-daemon smoke tests (memoization, graceful drain, kill -9
# recovery, injected-ENOSPC degradation), and the CLI documentation drift
# gate. Performance is
# separate: perfbench/ measures it and `make profile` captures pprof
# artifacts; neither is part of the tier-1 gate because wall-clock numbers
# are machine-dependent (the allocation-regression tests run here guard
# the hot path instead).
set -euo pipefail
cd "$(dirname "$0")/.."

# gofmt -l exits 0 even when files need formatting; fail on any output.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "check: gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# Doc-comment gate: every exported top-level declaration in every non-test
# Go file outside perfbench/ must carry a doc comment.
undocumented=$(
	find . -path ./perfbench -prune -o -name '*.go' ! -name '*_test.go' -print |
		while read -r f; do
			awk -v f="$f" '
				NR > 1 && /^(func|type|var|const) [A-Z]/ &&
				prev !~ /^\/\// && prev !~ /^\)/ { print f ":" FNR ": " $0 }
				{ prev = $0 }' "$f"
		done
)
if [ -n "$undocumented" ]; then
	echo "check: exported declarations missing doc comments:" >&2
	echo "$undocumented" >&2
	exit 1
fi

go vet ./...
go build ./...
./scripts/inline_check.sh
go run ./cmd/protovet
go test -race ./...
./scripts/fault_smoke.sh
./scripts/serve_smoke.sh
./scripts/fsfault_smoke.sh
./scripts/lint_smoke.sh
./scripts/machines_smoke.sh
./scripts/machines_fault_smoke.sh
./scripts/optimize_smoke.sh
./scripts/doc_check.sh
