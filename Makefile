# Tier-1 verification targets. Performance is measured by the benchmark in
# perfbench/ (bash perfbench/run.sh; see perfbench/README.md).

.PHONY: check vet profile test build fuzz

check: ## vet + build + race-enabled tests, one command
	./scripts/check.sh

vet: ## toolchain vet plus the repo's determinism analyzers (cmd/protovet)
	go vet ./...
	go run ./cmd/protovet

profile: ## capture CPU+alloc pprof profiles of the hot workloads into profiles/
	./scripts/profile.sh

fuzz: ## 30 s each of coverage-guided fuzzing: the layout search's move-only proof, the spec parser, the PROTOLAT_FSFAULT parser, the CPU issue model against its reference, compiled runs against stepping, the memory hierarchy against its reference, the store envelope parser (not part of check)
	go test -run '^$$' -fuzz '^FuzzMoveOnlyMutation$$' -fuzztime 30s ./internal/optimize
	go test -run '^$$' -fuzz '^FuzzSpec$$' -fuzztime 30s ./internal/serve
	go test -run '^$$' -fuzz '^FuzzFromEnv$$' -fuzztime 30s ./internal/storage
	go test -run '^$$' -fuzz '^FuzzStep$$' -fuzztime 30s ./internal/sim/cpu
	go test -run '^$$' -fuzz '^FuzzExecRun$$' -fuzztime 30s ./internal/sim/cpu
	go test -run '^$$' -fuzz '^FuzzHierarchyMatchesReference$$' -fuzztime 30s ./internal/sim/mem
	go test -run '^$$' -fuzz '^FuzzLoadEnvelopeFS$$' -fuzztime 30s ./internal/soak

build:
	go build ./...

test:
	go test ./...
