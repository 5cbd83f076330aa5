package optimize

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/machines"
	"repro/internal/protocols/features"
	"repro/internal/verify"
	"repro/internal/verify/costref"
)

// searchFixture is what RunCtx builds once before it searches any machine.
type searchFixture struct {
	cfg     Config
	ref     *code.Program
	spec    layout.Spec
	weights map[string]float64
	feat    features.Set
}

func newSearchFixture(t testing.TB, budget int) *searchFixture {
	t.Helper()
	cfg := Default(core.StackTCPIP, 1)
	cfg.Budget = budget
	feat := features.Improved()
	ref, spec, weights, err := reference(cfg, feat)
	if err != nil {
		t.Fatal(err)
	}
	return &searchFixture{cfg: cfg, ref: ref, spec: spec, weights: weights, feat: feat}
}

// searcher sets up one machine's search, working image included.
func (fx *searchFixture) searcher(t testing.TB, model machines.Model) *searcher {
	t.Helper()
	s, err := newSearcher(fx.cfg, model, fx.ref, fx.spec, fx.weights, fx.feat)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func modelNamed(t testing.TB, name string) machines.Model {
	t.Helper()
	m, err := machines.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCostMatchesReferenceOnSearchedPlacements holds the dense cost engine
// to the map-based reference replay on the placements the search actually
// proposes: a seeded walk of 200 mutate steps from the greedy order on
// every geometry of the machine matrix, each placement scored under the
// search's weighted objective and every fourth under the lint's zero
// model too.
func TestCostMatchesReferenceOnSearchedPlacements(t *testing.T) {
	const steps = 200
	fx := newSearchFixture(t, 0)
	for mi, model := range machines.Matrix() {
		s := fx.searcher(t, model)
		m := model.Machine
		specs := []verify.CostSpec{s.costSpec, {PathSpec: s.costSpec.PathSpec}}
		r := &rng{state: uint64(mi + 1)}
		order := greedyOrder(fx.ref, fx.spec, fx.weights)
		pads := make([]int, len(order))
		for i := 0; i < steps; i++ {
			order, pads = mutate(r, order, pads)
			if _, err := s.placer.place(s.work, order, pads); err != nil {
				t.Fatalf("%s step %d: placement rejected a mutate candidate: %v", model.Name, i, err)
			}
			// The zero model adds little once the weighted one agrees
			// (its counts are the same replay); every fourth step keeps
			// it covered.
			n := 1
			if i%4 == 0 {
				n = 2
			}
			for _, cs := range specs[:n] {
				got, err := verify.Cost(s.work, cs, m)
				if err != nil {
					t.Fatal(err)
				}
				want, err := costref.Cost(s.work, cs, m)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s step %d (%s): Cost disagrees with the reference\n got  %+v\n want %+v",
						model.Name, i, candKey(order, pads), got, want)
				}
			}
		}
	}
}

// verdict is one candidate's fate at the search's gates.
type verdict struct {
	outcome  string // "accepted", "well-formedness" or "equivalence"
	rep      *verify.CostReport
	hotBytes uint64
}

// evalOnImage is eval on the searcher's working image, its verdict read
// back from the rejection counters.
func evalOnImage(t *testing.T, s *searcher, order []string, pads []int) verdict {
	t.Helper()
	wf, eq := s.rejWF, s.rejEq
	sc, ok := s.eval(order, pads)
	switch {
	case ok:
		return verdict{outcome: "accepted", rep: sc.rep, hotBytes: sc.hotBytes}
	case s.rejEq > eq:
		return verdict{outcome: "equivalence"}
	case s.rejWF > wf:
		return verdict{outcome: "well-formedness"}
	}
	t.Fatalf("eval rejected %s without counting it", candKey(order, pads))
	return verdict{}
}

// evalOnFreshClone is the gate sequence with a fresh deep clone of the
// reference per candidate, linked by FinishLayout: the search's original
// per-candidate path, kept here as the oracle for the working image.
func evalOnFreshClone(s *searcher, order []string, pads []int) verdict {
	p := s.ref.Clone()
	hot, err := s.placer.place(p, order, pads)
	if err == nil {
		err = p.FinishLayout()
	}
	if err != nil {
		return verdict{outcome: "well-formedness"}
	}
	if err := verify.Program(p, s.model.Machine); err != nil {
		return verdict{outcome: "well-formedness"}
	}
	if err := verify.CheckClone(s.ref, p, nil); err != nil {
		return verdict{outcome: "equivalence"}
	}
	rep, err := verify.Cost(p, s.costSpec, s.model.Machine)
	if err != nil {
		return verdict{outcome: "well-formedness"}
	}
	return verdict{outcome: "accepted", rep: rep, hotBytes: hot}
}

// rejectable turns a good candidate into one that placement refuses,
// cycling through the ways an order or its padding can be wrong: a
// function named twice (and another dropped), a name outside the spec, a
// short order, and a negative pad that folds one function's hot code back
// over its predecessor's.
func rejectable(kind int, order []string, pads []int) ([]string, []int) {
	o := append([]string(nil), order...)
	p := append([]int(nil), pads...)
	switch kind % 4 {
	case 0:
		o[1] = o[0]
	case 1:
		o[len(o)-1] = "no_such_function"
	case 2:
		o = o[:len(o)-1]
	default:
		p[1] = -2
	}
	return o, p
}

// TestWorkingImageMatchesFreshClones replays one seeded sequence of
// candidates twice — on the reused working image and on a fresh clone
// each — and requires the same verdict, cost report and hot-run size for
// every candidate, including the ones placement rejects part-way through.
// Afterwards the working image, re-placed once more, must be exactly the
// image a freshly linked clone gives for the same placement: placements,
// instruction streams, cached operand addresses and the data table.
func TestWorkingImageMatchesFreshClones(t *testing.T) {
	const candidates = 120
	fx := newSearchFixture(t, 0)
	s := fx.searcher(t, modelNamed(t, "dec3000"))
	r := &rng{state: 7}
	order := greedyOrder(fx.ref, fx.spec, fx.weights)
	pads := make([]int, len(order))
	rejected := 0
	for i := 0; i < candidates; i++ {
		order, pads = mutate(r, order, pads)
		o, p := order, pads
		if i%6 == 5 {
			o, p = rejectable(i/6, order, pads)
		}
		got, want := evalOnImage(t, s, o, p), evalOnFreshClone(s, o, p)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("candidate %d (%s): working image gave %+v, fresh clone %+v", i, candKey(o, p), got, want)
		}
		if got.outcome != "accepted" {
			rejected++
		}
	}
	if rejected < candidates/6 {
		t.Fatalf("only %d of %d candidates rejected; the rejectable ones were not exercised", rejected, candidates)
	}

	if _, err := s.placer.place(s.work, order, pads); err != nil {
		t.Fatal(err)
	}
	fresh := fx.ref.Clone()
	if _, err := s.placer.place(fresh, order, pads); err != nil {
		t.Fatal(err)
	}
	if err := fresh.FinishLayout(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.work.LayoutFingerprint(), fresh.LayoutFingerprint(); got != want {
		t.Fatalf("working image fingerprint %#x, freshly linked clone %#x", got, want)
	}

	// Execute the working image, re-place it so that functions start at
	// other offsets within a cache line, and execute it again. Each run
	// must measure exactly what a fresh clone of the same placement
	// measures: a body compiled for the old offsets and kept across the
	// move would show here.
	rotated := append(append([]string(nil), order[1:]...), order[0])
	offsets := func(p *code.Program) []uint64 {
		var out []uint64
		for _, n := range order {
			addr, err := p.FuncEntry(n)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, addr%uint64(s.model.Machine.BlockBytes))
		}
		return out
	}
	var prev []uint64
	for _, o := range [][]string{order, rotated} {
		if _, err := s.placer.place(s.work, o, pads); err != nil {
			t.Fatal(err)
		}
		fresh := fx.ref.Clone()
		if _, err := s.placer.place(fresh, o, pads); err != nil {
			t.Fatal(err)
		}
		if err := fresh.FinishLayout(); err != nil {
			t.Fatal(err)
		}
		got, err := core.Run(s.simConfig(s.work))
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Run(s.simConfig(fresh))
		if err != nil {
			t.Fatal(err)
		}
		// The results differ in the image they name, by construction.
		got.Config.Custom, want.Config.Custom = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("order %s: the executed working image measures\n %+v\nwhere a fresh clone measures\n %+v",
				candKey(o, pads), got.Samples, want.Samples)
		}
		cur := offsets(s.work)
		if prev != nil && reflect.DeepEqual(cur, prev) {
			t.Fatal("re-placement left every function at its old offset within a cache line")
		}
		prev = cur
	}
}

// TestPlaceOrderRefusesNonPermutations: an order that names a function
// twice, names one outside the spec, or is short is refused before
// anything is placed, so it cannot leave a function of the working image
// where an earlier candidate put it.
func TestPlaceOrderRefusesNonPermutations(t *testing.T) {
	fx := newSearchFixture(t, 0)
	s := fx.searcher(t, modelNamed(t, "dec3000"))
	order := greedyOrder(fx.ref, fx.spec, fx.weights)
	pads := make([]int, len(order))
	if _, err := s.placer.place(s.work, order, pads); err != nil {
		t.Fatal(err)
	}
	placed := s.work.LayoutFingerprint()
	for kind := 0; kind < 3; kind++ {
		o, p := rejectable(kind, order, pads)
		if _, err := s.placer.place(s.work, o, p); err == nil {
			t.Fatalf("order %s accepted", candKey(o, p))
		}
		if s.work.LayoutFingerprint() != placed {
			t.Fatalf("refused order %s moved functions of the working image", candKey(o, p))
		}
	}
}

// TestAnnealStepAllocBudget measures the bytes one annealing step
// allocates — a budget-40 search minus a budget-0 one, over 40 — and
// holds it to annealStepBytesLimit.
func TestAnnealStepAllocBudget(t *testing.T) {
	const budget = 40
	model := modelNamed(t, "dec3000")
	searchBytes := func(budget int) uint64 {
		fx := newSearchFixture(t, budget)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := fx.searcher(t, model)
		if _, err := s.anneal(0); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// The checks draw their scratch from sync.Pools. Collection empties
	// them, and a goroutine moved to another P misses the object it put
	// back, both at moments that differ between the two searches; with
	// neither, the difference is the steps' own allocation.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	searchBytes(0) // fill the pools, so neither search pays for that
	perStep := (searchBytes(budget) - searchBytes(0)) / budget
	t.Logf("%d bytes per annealing step", perStep)
	if perStep > annealStepBytesLimit {
		t.Fatalf("one annealing step allocates %d bytes, limit %d", perStep, annealStepBytesLimit)
	}
}
