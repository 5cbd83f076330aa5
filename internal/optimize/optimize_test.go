package optimize

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
)

func quickConfig(t *testing.T, models string) Config {
	t.Helper()
	sel, err := machines.Select(models)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(core.StackTCPIP, 1)
	cfg.Models = sel
	cfg.Budget = 40
	cfg.TopK = 2
	cfg.Quality = core.Quality{Warmup: 2, Measured: 4, Samples: 1}
	return cfg
}

func TestSearchBeatsOrMatchesHandOnBaseline(t *testing.T) {
	// Full default budget: the quick config's 40 steps are enough to
	// exercise the machinery but not to out-place the hand layout.
	cfg := quickConfig(t, "dec3000")
	cfg.Budget = DefaultBudget
	cfg.TopK = DefaultTopK
	cfg.Quality = core.Quality{}
	results, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	r := results[0]
	if len(r.Candidates) == 0 {
		t.Fatal("no confirmed candidates")
	}
	// The simulator has the final word: measured Tp no worse than hand on
	// the 21064 baseline (the acceptance criterion of the search). The
	// predicted cost only guides the search — the hand bipartite layout
	// stripes the working set and predicts near zero, which a contiguous
	// packing cannot reach even when its measured Tp is better.
	best := r.Candidates[0]
	if best.MeasuredTpUS > r.HandTpUS {
		t.Fatalf("best measured Tp %.3f us above hand %.3f us", best.MeasuredTpUS, r.HandTpUS)
	}
	if r.Examined <= r.RejectedWellFormed+r.RejectedEquivalence {
		t.Fatalf("nothing survived the gates: examined %d, rejected %d+%d",
			r.Examined, r.RejectedWellFormed, r.RejectedEquivalence)
	}
}

func TestTamperProbeExercisesEquivalenceGate(t *testing.T) {
	results, err := Run(quickConfig(t, "dec3000"))
	if err != nil {
		t.Fatal(err)
	}
	if got := results[0].RejectedEquivalence; got < 1 {
		t.Fatalf("equivalence gate rejected %d candidates; the tamper probe alone must count", got)
	}
}

func TestSearchCoversMachinesWithoutHandLayouts(t *testing.T) {
	// future266 and line128 have no hand-derived layout in the paper; the
	// search must still produce verify-clean confirmed candidates there.
	results, err := Run(quickConfig(t, "future266,line128"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if len(r.Candidates) == 0 {
			t.Fatalf("%s: no confirmed candidates", r.Model.Name)
		}
		for _, c := range r.Candidates {
			if c.MeasuredTpUS <= 0 {
				t.Fatalf("%s #%d: no confirmation measurement", r.Model.Name, c.Rank)
			}
		}
	}
}

func TestSearchIsDeterministic(t *testing.T) {
	run := func() []byte {
		results, err := Run(quickConfig(t, "dec3000,line128"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(DocOf(quickConfig(t, "dec3000,line128"), results))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatal("two identical searches produced different documents")
	}
}
