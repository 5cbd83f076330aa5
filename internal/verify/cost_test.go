package verify_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/protocols/features"
	"repro/internal/verify"
	"repro/internal/verify/costref"
)

// costTotalsAgree allows for float summation order between Total and the
// attribution lists, which accumulate in different orders.
func costTotalsAgree(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCostUniformWeightsMatchLint(t *testing.T) {
	m := arch.DEC3000_600()
	spec := verify.PathSpec{Path: []string{"path"}, Library: []string{"lib"}}
	p := lintFixture(t, uint64(m.ICacheBytes))

	rep, err := verify.Cost(p, verify.CostSpec{PathSpec: spec, LoopWeight: 1}, m)
	if err != nil {
		t.Fatal(err)
	}
	lint, err := verify.Lint(p, spec, m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PredictedRepl != lint.PredictedRepl {
		t.Fatalf("cost predicts %d replacement misses, lint %d",
			rep.PredictedRepl, lint.PredictedRepl)
	}
	// Uniform weights, no loops, no victim buffer: the weighted total is
	// exactly the miss count.
	if rep.Total != float64(rep.PredictedRepl) {
		t.Fatalf("uniform-weight total = %g, want %d", rep.Total, rep.PredictedRepl)
	}
	var byFuncCost float64
	byFuncRepl := 0
	for _, fc := range rep.ByFunc {
		byFuncCost += fc.Cost
		byFuncRepl += fc.ReplMisses
	}
	if byFuncRepl != rep.PredictedRepl || !costTotalsAgree(byFuncCost, rep.Total) {
		t.Fatalf("per-function attribution (%d misses, %g cost) does not cover the total (%d, %g)",
			byFuncRepl, byFuncCost, rep.PredictedRepl, rep.Total)
	}
}

func TestCostFuncWeightsScaleAttribution(t *testing.T) {
	m := arch.DEC3000_600()
	spec := verify.PathSpec{Path: []string{"path"}, Library: []string{"lib"}}
	p := lintFixture(t, uint64(m.ICacheBytes))

	base, err := verify.Cost(p, verify.CostSpec{PathSpec: spec, LoopWeight: 1}, m)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := verify.Cost(p, verify.CostSpec{
		PathSpec:    spec,
		FuncWeights: map[string]float64{"path": 5},
		LoopWeight:  1,
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	if weighted.PredictedRepl != base.PredictedRepl {
		t.Fatalf("weights changed the miss count: %d vs %d",
			weighted.PredictedRepl, base.PredictedRepl)
	}
	funcCost := func(rep *verify.CostReport, name string) float64 {
		for _, fc := range rep.ByFunc {
			if fc.Func == name {
				return fc.Cost
			}
		}
		return 0
	}
	// The path function's refetches weigh 5x; library refetches happen
	// under the path caller's weight too, so every cost scales by the
	// caller weight — but the per-function split must track it exactly.
	if got, want := funcCost(weighted, "path"), 5*funcCost(base, "path"); !costTotalsAgree(got, want) {
		t.Fatalf("path cost with weight 5 = %g, want %g", got, want)
	}
}

func TestCostLoopWeightIsLinearInLoopMisses(t *testing.T) {
	m := arch.DEC3000_600()
	p := code.NewProgram()
	p.MustAdd(
		code.NewBuilder("lib", code.ClassLibrary).Frame(1).ALU(20).Ret().MustBuild(),
		code.NewBuilder("path", code.ClassPath).Frame(2).
			ALU(4).
			Loop("spin", "more", func(b *code.Builder) {
				b.ALU(4).Call("lib").ALU(2)
			}).
			ALU(2).Ret().MustBuild(),
	)
	base := uint64(0x30_0000)
	if _, err := p.PlaceSequential("path", base, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PlaceSequential("lib", base+uint64(m.ICacheBytes), nil); err != nil {
		t.Fatal(err)
	}
	if err := p.FinishLayout(); err != nil {
		t.Fatal(err)
	}
	spec := verify.PathSpec{Path: []string{"path"}, Library: []string{"lib"}}
	at := func(loopW float64) *verify.CostReport {
		rep, err := verify.Cost(p, verify.CostSpec{PathSpec: spec, LoopWeight: loopW}, m)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	t1, t4, t7 := at(1), at(4), at(7)
	if t1.PredictedRepl != t4.PredictedRepl || t4.PredictedRepl != t7.PredictedRepl {
		t.Fatalf("loop weight changed the miss count: %d / %d / %d",
			t1.PredictedRepl, t4.PredictedRepl, t7.PredictedRepl)
	}
	// Weight 1 collapses to the plain count.
	if t1.Total != float64(t1.PredictedRepl) {
		t.Fatalf("loop weight 1 total = %g, want %d", t1.Total, t1.PredictedRepl)
	}
	// The aliasing refetch is inside the depth-1 loop, so Total must grow
	// with the loop weight...
	if t4.Total <= t1.Total {
		t.Fatalf("loop weight 4 total %g not above weight-1 total %g", t4.Total, t1.Total)
	}
	// ...and linearly: Total(L) = flat + L*loop for depth-1 misses, so
	// equal weight steps give equal total steps.
	if d1, d2 := t4.Total-t1.Total, t7.Total-t4.Total; !costTotalsAgree(d1, d2) {
		t.Fatalf("loop-weight response nonlinear: steps %g vs %g", d1, d2)
	}
}

func TestCostVictimBufferDiscountsNotCounts(t *testing.T) {
	m := arch.DEC3000_600()
	spec := verify.PathSpec{Path: []string{"path"}, Library: []string{"lib"}}
	p := lintFixture(t, uint64(m.ICacheBytes))

	base, err := verify.Cost(p, verify.CostSpec{PathSpec: spec, LoopWeight: 1}, m)
	if err != nil {
		t.Fatal(err)
	}
	vm := m
	vm.VictimEntries = 8
	vm.VictimHitCycles = 2
	victim, err := verify.Cost(p, verify.CostSpec{PathSpec: spec, LoopWeight: 1}, vm)
	if err != nil {
		t.Fatal(err)
	}
	if base.VictimRescued != 0 {
		t.Fatalf("baseline machine has no victim buffer but rescued %d", base.VictimRescued)
	}
	// The victim buffer absorbs latency, not the miss count: the
	// simulator still reports these as replacement misses, so the
	// prediction must too.
	if victim.PredictedRepl != base.PredictedRepl {
		t.Fatalf("victim buffer changed the miss count: %d vs %d",
			victim.PredictedRepl, base.PredictedRepl)
	}
	if victim.VictimRescued == 0 {
		t.Fatal("8-entry victim buffer rescued nothing on a thrashing layout")
	}
	if victim.Total >= base.Total {
		t.Fatalf("victim-buffer total %g not below undiscounted %g", victim.Total, base.Total)
	}
}

func TestCostPairAttributionNamesTheConflict(t *testing.T) {
	m := arch.DEC3000_600()
	spec := verify.PathSpec{Path: []string{"path"}, Library: []string{"lib"}}
	rep, err := verify.Cost(lintFixture(t, uint64(m.ICacheBytes)), verify.CostSpec{PathSpec: spec}, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pairs) == 0 {
		t.Fatal("thrashing layout produced no conflict pairs")
	}
	pairRepl := 0
	for _, pc := range rep.Pairs {
		if pc.Victim == pc.Evictor {
			t.Fatalf("self-conflict pair %q", pc.Victim)
		}
		for _, n := range []string{pc.Victim, pc.Evictor} {
			if n != "path" && n != "lib" {
				t.Fatalf("pair names unknown function %q", n)
			}
		}
		pairRepl += pc.ReplMisses
	}
	// Every refetch of an evicted-and-tracked block belongs to exactly one
	// pair; the pair list may undercount (first-touch evictions of blocks
	// never tracked) but never overcount.
	if pairRepl > rep.PredictedRepl {
		t.Fatalf("pairs claim %d misses, only %d predicted", pairRepl, rep.PredictedRepl)
	}
	for i := 1; i < len(rep.Pairs); i++ {
		if rep.Pairs[i-1].Cost < rep.Pairs[i].Cost {
			t.Fatalf("pairs unsorted at %d", i)
		}
	}
	// Disjoint placement: no pairs at all.
	clean, err := verify.Cost(lintFixture(t, uint64(m.ICacheBytes/2)), verify.CostSpec{PathSpec: spec}, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Pairs) != 0 || clean.Total != 0 {
		t.Fatalf("disjoint layout attributed pairs %v, total %g", clean.Pairs, clean.Total)
	}
}

// costSpecsFor is the frequency models the differential tests replay each
// layout under: the lint's zero model, and the layout search's
// usage-weighted model with a non-default loop weight.
func costSpecsFor(spec verify.PathSpec, weights map[string]float64) []verify.CostSpec {
	return []verify.CostSpec{
		{PathSpec: spec},
		{PathSpec: spec, FuncWeights: weights, LoopWeight: 5},
	}
}

// TestCostMatchesReferenceOnHandLayouts holds the dense cost engine to the
// map-based reference replay (internal/verify/costref) field for field —
// counts, float totals, and the order of every list — on every
// version's hand layout of both stacks on every geometry of the machine
// matrix, with all three clone strategies on ALL.
// Searched placements get the same check in internal/optimize.
func TestCostMatchesReferenceOnHandLayouts(t *testing.T) {
	feat := features.Improved()
	_, _, usage, err := core.OptimizeMaterial(core.StackTCPIP, feat)
	if err != nil {
		t.Fatal(err)
	}
	weights := make(map[string]float64, len(usage))
	for n, c := range usage {
		weights[n] = float64(c)
	}
	compared := 0
	for _, model := range machines.Matrix() {
		m := model.Machine
		for _, kind := range []core.StackKind{core.StackTCPIP, core.StackRPC} {
			for _, v := range core.Versions() {
				strats := []core.CloneStrategy{core.Bipartite}
				if v == core.ALL {
					strats = append(strats, core.MicroPosition, core.LinearLayout)
				}
				for _, strat := range strats {
					p, err := core.BuildProgram(kind, v, feat, strat, m)
					if err != nil {
						t.Fatal(err)
					}
					for _, cs := range costSpecsFor(core.LintSpec(kind, v), weights) {
						where := fmt.Sprintf("%s %v %v %v weights=%t", model.Name, kind, v, strat, cs.FuncWeights != nil)
						assertCostMatchesReference(t, where, p, cs, m)
						compared++
					}
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no layouts compared")
	}
}

// TestCostMatchesReferenceOnFixtures covers the hand-built thrashing,
// loop and victim-buffer fixtures of the tests above, whose conflict pairs
// and victim rescues the protocol images may not reach.
func TestCostMatchesReferenceOnFixtures(t *testing.T) {
	m := arch.DEC3000_600()
	vm := m
	vm.VictimEntries, vm.VictimHitCycles = 8, 2
	spec := verify.PathSpec{Path: []string{"path"}, Library: []string{"lib"}}
	for _, off := range []uint64{uint64(m.ICacheBytes), uint64(m.ICacheBytes / 2), uint64(m.ICacheBytes) + 0x20} {
		p := lintFixture(t, off)
		for _, mm := range []arch.Machine{m, vm} {
			for _, cs := range costSpecsFor(spec, map[string]float64{"path": 3}) {
				assertCostMatchesReference(t, fmt.Sprintf("fixture +%#x victim=%d", off, mm.VictimEntries), p, cs, mm)
			}
		}
	}
}

func assertCostMatchesReference(t *testing.T, where string, p *code.Program, cs verify.CostSpec, m arch.Machine) {
	t.Helper()
	got, err := verify.Cost(p, cs, m)
	want, refErr := costref.Cost(p, cs, m)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: Cost error %v, reference error %v", where, err, refErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Cost disagrees with the reference\n got  %+v\n want %+v", where, got, want)
	}
}
