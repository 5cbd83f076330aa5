package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// quickFaultCfg is a small fault study for tests.
func quickFaultCfg(kind StackKind) FaultStudyConfig {
	return FaultStudyConfig{
		Stack:    kind,
		Seed:     13,
		Rates:    []float64{0, 0.05},
		Versions: []Version{STD, PIN},
		Quality:  Quality{Warmup: 2, Measured: 8, Samples: 1},
	}
}

// faultReport runs a fault study and renders the report from its
// document, as the faults registry kind does.
func faultReport(ctx context.Context, cfg FaultStudyConfig) (string, error) {
	cells, err := FaultStudyCtx(ctx, cfg)
	if err != nil {
		return "", err
	}
	doc := &obs.Document{Manifest: NewManifest("", cfg.Seed, cfg.Quality), FaultStudy: FaultStudyDocOf(cfg, cells)}
	return RenderFaultStudy(doc), nil
}

// TestFaultStudyParallelMatchesSerial: the study must be invisible to the
// worker pool — identical cells and identical rendered bytes at any width.
func TestFaultStudyParallelMatchesSerial(t *testing.T) {
	for _, kind := range []StackKind{StackTCPIP, StackRPC} {
		cfg := quickFaultCfg(kind)
		var serial, parallel []FaultCell
		var serialTxt, parallelTxt string
		withParallelism(t, 1, func() {
			var err error
			if serial, err = FaultStudy(cfg); err != nil {
				t.Fatal(err)
			}
			if serialTxt, err = faultReport(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		})
		withParallelism(t, 8, func() {
			var err error
			if parallel, err = FaultStudy(cfg); err != nil {
				t.Fatal(err)
			}
			if parallelTxt, err = faultReport(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		})
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%v: parallel cells differ from serial", kind)
		}
		if serialTxt != parallelTxt {
			t.Fatalf("%v: rendered report differs across parallelism", kind)
		}
	}
}

// TestFaultStudyInjectsAndRecovers: fault cells must actually inject and the
// ping-pong must still complete, with degraded roundtrips observed at a
// meaningful rate.
func TestFaultStudyInjectsAndRecovers(t *testing.T) {
	cells, err := FaultStudy(quickFaultCfg(StackTCPIP))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Rate == 0 {
			if c.Stats.Injected.Injected() != 0 || c.DegradedRT != 0 {
				t.Fatalf("baseline cell injected faults: %+v", c)
			}
			continue
		}
		if c.Stats.Injected.Injected() == 0 {
			t.Fatalf("fault cell %v/%.2f injected nothing", c.Version, c.Rate)
		}
		if c.CleanRT+c.DegradedRT != 8 {
			t.Fatalf("cell %v/%.2f attributed %d+%d roundtrips, want 8",
				c.Version, c.Rate, c.CleanRT, c.DegradedRT)
		}
	}
}

// TestFaultStudyReconciles: injector counters must equal link counters in
// every fault cell (the per-run invariant, re-checked on the aggregate).
func TestFaultStudyReconciles(t *testing.T) {
	cells, err := FaultStudy(quickFaultCfg(StackRPC))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Rate == 0 {
			continue
		}
		s := c.Stats
		if s.Injected.Frames != s.LinkFrames || s.Injected.Dropped != s.LinkDropped ||
			s.Injected.Duplicated != s.LinkDuplicated {
			t.Fatalf("cell %v/%.2f: injector %v vs link frames=%d dropped=%d duplicated=%d",
				c.Version, c.Rate, s.Injected, s.LinkFrames, s.LinkDropped, s.LinkDuplicated)
		}
	}
}

// TestRunWithFaultsRecordsStats: the plain Run API must surface per-sample
// fault stats when a plan is configured, on both stacks, including a
// duplication/reordering storm that loses nothing; every run must pass
// finishRun's frame-accounting and injector-reconciliation invariants, which
// the totals re-check.
func TestRunWithFaultsRecordsStats(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kind    StackKind
		plan    faults.Plan
		reorder bool // the plan reorders, so some frame must be held back
	}{
		{"tcpip dup", StackTCPIP, faults.Plan{Seed: 99, DupProb: 0.2}, false},
		{"tcpip storm", StackTCPIP, faults.Plan{Seed: 99, DupProb: 0.15, ReorderProb: 0.15}, true},
		{"rpc storm", StackRPC, faults.Plan{Seed: 99, DupProb: 0.15, ReorderProb: 0.15}, true},
	} {
		cfg := quickCfg(tc.kind, STD)
		cfg.Warmup, cfg.Measured, cfg.Samples = 2, 6, 2
		cfg.Faults = &tc.plan
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		tot := res.FaultTotals()
		if tot.Injected.Duplicated == 0 {
			t.Fatalf("%s: duplication plan never duplicated a frame", tc.name)
		}
		if tc.reorder && tot.Injected.Reordered == 0 {
			t.Fatalf("%s: reordering plan never reordered a frame", tc.name)
		}
		if tot.Injected.Dropped != 0 || tot.Injected.Corrupted != 0 {
			t.Fatalf("%s: dup/reorder plan injected other faults: %v", tc.name, tot.Injected)
		}
		if tot.LinkFrames == 0 || tot.Injected.Frames != tot.LinkFrames {
			t.Fatalf("%s: injector saw %d frames, link %d", tc.name, tot.Injected.Frames, tot.LinkFrames)
		}
		if tot.LinkDelivered+tot.LinkDropped != tot.LinkFrames+tot.LinkDuplicated {
			t.Fatalf("%s: frame accounting: delivered %d + dropped %d != frames %d + duplicated %d",
				tc.name, tot.LinkDelivered, tot.LinkDropped, tot.LinkFrames, tot.LinkDuplicated)
		}
	}
}

// TestEventBudgetErrs: an exhausted event budget must surface as a
// structured BudgetError naming the sample, not a hang or a stall error —
// on a clean run with an absurdly small budget, and on both stacks when
// loss stretches a run past a budget its clean twin completes within.
func TestEventBudgetErrs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   StackKind
		loss   float64
		budget int
	}{
		{"tcpip clean", StackTCPIP, 0, 10},
		{"tcpip loss", StackTCPIP, 0.3, 80},
		{"rpc loss", StackRPC, 0.3, 80},
	} {
		cfg := quickCfg(tc.kind, STD)
		cfg.Samples = 1
		cfg.EventBudget = tc.budget
		if tc.loss > 0 {
			if _, err := Run(cfg); err != nil {
				t.Fatalf("%s: the clean run does not fit the budget: %v", tc.name, err)
			}
			cfg.Faults = &faults.Plan{Seed: 7, LossProb: tc.loss}
		}
		_, err := Run(cfg)
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%s: err = %v, want *BudgetError", tc.name, err)
		}
		if be.Budget != tc.budget || be.Sample != 0 {
			t.Fatalf("%s: BudgetError fields: %+v", tc.name, be)
		}
		if !strings.Contains(be.Error(), "event budget") {
			t.Fatalf("%s: message: %q", tc.name, be.Error())
		}
	}
}

// TestRecoverSampleConvertsPanics: a panicking simulation becomes a
// SimPanicError carrying the sample index, fault seed and stack.
func TestRecoverSampleConvertsPanics(t *testing.T) {
	cfg := quickCfg(StackTCPIP, STD)
	cfg.Faults = &faults.Plan{Seed: 7, LossProb: 0.1}
	boom := func() (err error) {
		defer recoverSample(cfg, 3, &err)
		panic("simulated blowup")
	}
	err := boom()
	var pe *SimPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *SimPanicError", err)
	}
	if pe.Sample != 3 || pe.Value != "simulated blowup" || len(pe.Stack) == 0 {
		t.Fatalf("SimPanicError fields: sample=%d value=%v stack=%d bytes",
			pe.Sample, pe.Value, len(pe.Stack))
	}
	if pe.Seed != cfg.faultSeed(3) {
		t.Fatalf("seed %d, want the sample's derived fault seed %d", pe.Seed, cfg.faultSeed(3))
	}
	if !strings.Contains(pe.Error(), "sample 3") {
		t.Fatalf("message: %q", pe.Error())
	}
}

// TestFaultFreeRunsUnchangedByFaultsField: a nil plan (and an inactive one)
// must leave results byte-identical to the seed behaviour — the injector is
// only attached when the plan can act.
func TestFaultFreeRunsUnchangedByFaultsField(t *testing.T) {
	base := quickCfg(StackTCPIP, ALL)
	base.Samples = 1
	r1, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	inactive := base
	inactive.Faults = &faults.Plan{Seed: 5} // no probabilities: inactive
	r2, err := Run(inactive)
	if err != nil {
		t.Fatal(err)
	}
	// Config differs by the plan pointer; the measurements must not.
	if !reflect.DeepEqual(r1.Samples, r2.Samples) ||
		r1.TeMeanUS != r2.TeMeanUS || r1.TeStdUS != r2.TeStdUS {
		t.Fatal("inactive fault plan changed the measurements")
	}
}
