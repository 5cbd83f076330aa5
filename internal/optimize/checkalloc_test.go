//go:build !race

package optimize

import (
	"errors"
	"runtime/debug"
	"testing"

	"repro/internal/verify"
)

// checkAllocs pins the allocations of the three checks every candidate
// runs, alone and as the one gate the search calls, on the placed dec3000
// working image after one warm-up call: the well-formedness pass and the
// move-only proof allocate nothing, and the cost replay and the gate
// allocate only the report they return. The pins are not
// built under -race, where sync.Pool drops a quarter of what is put back
// and the checks' pooled scratch is re-allocated at random.
var checkAllocs = []struct {
	name string
	max  float64
	run  func(s *searcher) error
}{
	{"verify.Program", 0, func(s *searcher) error { return verify.Program(s.work, s.model.Machine) }},
	{"verify.CheckClone", 0, func(s *searcher) error { return verify.CheckClone(s.ref, s.work, nil) }},
	{"verify.Cost", costAllocs, func(s *searcher) error {
		_, err := verify.Cost(s.work, s.costSpec, s.model.Machine)
		return err
	}},
	{"verify.Candidate", costAllocs, func(s *searcher) error {
		_, wf, eq := verify.Candidate(s.ref, s.work, s.costSpec, s.model.Machine)
		return errors.Join(wf, eq)
	}},
}

// costAllocs is what verify.Cost allocated for the report on the greedy
// order's placement with Go 1.24 on linux/amd64: the report, its
// conflict list with one name slice per conflicting set, and the
// attribution lists.
const costAllocs = 40

func TestCheckAllocs(t *testing.T) {
	fx := newSearchFixture(t, 0)
	s := fx.searcher(t, modelNamed(t, "dec3000"))
	order := greedyOrder(fx.ref, fx.spec, fx.weights)
	if _, err := s.placer.place(s.work, order, make([]int, len(order))); err != nil {
		t.Fatal(err)
	}
	// A collection would empty the pools mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range checkAllocs {
		if err := c.run(s); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := testing.AllocsPerRun(50, func() {
			if err := c.run(s); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		t.Logf("%s: %.0f allocations per call", c.name, got)
		if got > c.max {
			t.Errorf("%s allocates %.0f objects per call on the working image, want at most %.0f", c.name, got, c.max)
		}
	}
}
