package optimize

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
)

// BenchmarkRunDec3000 is one default layout search on the DEC 3000/600,
// the operation perfbench's optimize workload times: the greedy seed, the
// tamper probe, DefaultBudget annealing steps and the confirmation runs.
func BenchmarkRunDec3000(b *testing.B) {
	cfg := Default(core.StackTCPIP, 1)
	models, err := machines.Select("dec3000")
	if err != nil {
		b.Fatal(err)
	}
	cfg.Models = models
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEval is one candidate's checks on the dec3000 working image:
// placement, the well-formedness pass, the move-only proof and the cost
// replay, over a seeded walk of mutate steps.
func BenchmarkEval(b *testing.B) {
	fx := newSearchFixture(b, 0)
	s := fx.searcher(b, modelNamed(b, "dec3000"))
	r := &rng{state: 1}
	order := greedyOrder(fx.ref, fx.spec, fx.weights)
	pads := make([]int, len(order))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order, pads = mutate(r, order, pads)
		if _, ok := s.eval(order, pads); !ok {
			b.Fatalf("candidate %s rejected", candKey(order, pads))
		}
	}
}
