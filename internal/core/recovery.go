package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/protocols/recovery"
)

// This file compares transport recovery policies (fixed vs adaptive
// retransmission timers) under loss. Unlike the fault study, which reports
// population means, the comparison keeps every measured roundtrip so it can
// report tail percentiles — the metric an adaptive RTO actually moves: a
// lost frame under the fixed policy stalls for the full 200 ms initial
// timeout, while the Jacobson/Karn estimator retransmits after a few RTTs.

// Roundtrip is one measured roundtrip of a run: its latency in cycles and
// whether the fault injector acted during it (the same attribution rule the
// fault study uses).
type Roundtrip struct {
	Cycles   uint64
	Degraded bool
}

// RunRoundtrips runs the ping-pong once under cfg and returns each measured
// roundtrip individually, plus the run's fault accounting. It shares the
// fault study's machinery — buildPair, the finishRun invariants, injector
// attribution at roundtrip boundaries — but keeps the per-roundtrip
// latencies instead of folding them into population sums, so callers can
// build exact distributions (percentiles, digests).
func RunRoundtrips(cfg Config, sampleIdx int) (rts []Roundtrip, stats FaultStats, err error) {
	defer recoverSample(cfg, sampleIdx, &err)
	roundtrips := cfg.Warmup + cfg.Measured
	hp, err := buildPair(cfg, sampleIdx, roundtrips)
	if err != nil {
		return nil, FaultStats{}, err
	}

	// injAt[n] snapshots the injector's action count when roundtrip n
	// (1-based) completes; roundtrip n is degraded iff the injector acted
	// between the completions bounding it.
	injAt := make([]int, roundtrips+1)
	hp.onRoundtrip(func(n int) {
		if n >= 1 && n <= roundtrips && hp.injector != nil {
			injAt[n] = hp.injector.Injected()
		}
	})

	hp.startFn()
	if err := hp.finishRun(cfg, sampleIdx, roundtrips); err != nil {
		return nil, FaultStats{}, err
	}

	stamps := hp.stampFn()
	rts = make([]Roundtrip, 0, cfg.Measured)
	for n := cfg.Warmup + 1; n <= roundtrips; n++ {
		rts = append(rts, Roundtrip{
			Cycles:   stamps[n-1] - stamps[n-2],
			Degraded: injAt[n] > injAt[n-1],
		})
	}
	stats = hp.faultStats()
	hp.release()
	return rts, stats, nil
}

// RecoveryCell is one (policy, rate) point of the recovery comparison.
type RecoveryCell struct {
	Policy recovery.Kind
	Rate   float64

	// CleanRT and DegradedRT count the roundtrips in each population.
	CleanRT, DegradedRT int

	// Exact nearest-rank percentiles per population, in microseconds.
	// Clean values must be cycle-identical across policies at the same
	// rate (the timer only matters once a frame is lost) — a tested
	// invariant.
	CleanP50US, CleanP99US       float64
	DegradedP50US, DegradedP99US float64
	DegradedMeanUS               float64
	Retransmits, FastRetransmits int
}

// recoveryRates are the Bernoulli loss intensities the comparison sweeps.
var recoveryRates = []float64{0.05, 0.10}

// recoveryPolicies are the compared timer policies, fixed first.
var recoveryPolicies = []recovery.Kind{recovery.Fixed, recovery.Adaptive}

// percentileUS returns the nearest-rank q-quantile of the sorted cycle
// values, in microseconds (0 for an empty population).
func percentileUS(sorted []uint64, q float64, m arch.Machine) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank]) / m.CyclesPerMicrosecond()
}

// RecoveryComparison measures fixed vs adaptive recovery on the best (ALL)
// layout under pure Bernoulli loss. Both policies in a rate pair run under
// the same plan seed — derived from the rate index, not the cell index — so
// they face identical loss decisions and the comparison isolates the timer.
// Cells fan out over the worker pool; samples run serially within a cell;
// the result is identical at any parallelism. The measured-roundtrip count
// is doubled relative to q so the degraded population is large enough for a
// meaningful p99.
func RecoveryComparison(kind StackKind, seed uint64, q Quality) ([]RecoveryCell, error) {
	return RecoveryComparisonCtx(context.Background(), kind, seed, q)
}

// RecoveryComparisonCtx is RecoveryComparison with cooperative
// cancellation: ctx is consulted between cells and between the samples
// within a cell.
func RecoveryComparisonCtx(ctx context.Context, kind StackKind, seed uint64, q Quality) ([]RecoveryCell, error) {
	samples := q.Samples
	if samples < 2 {
		samples = 2
	}
	m := arch.DEC3000_600()
	cells := make([]RecoveryCell, len(recoveryRates)*len(recoveryPolicies))
	err := forEachIndexedCtx(ctx, len(cells), CtxParallelism(ctx), func(i int) error {
		rateIdx, polIdx := i/len(recoveryPolicies), i%len(recoveryPolicies)
		cell := RecoveryCell{Policy: recoveryPolicies[polIdx], Rate: recoveryRates[rateIdx]}

		cfg := DefaultConfig(kind, ALL)
		cfg.Warmup = q.Warmup
		cfg.Measured = q.Measured * 2
		cfg.Samples = samples
		cfg.Recovery = cell.Policy
		plan := faults.Plan{Seed: faults.Mix(seed, uint64(rateIdx)), LossProb: cell.Rate}
		cfg.Faults = &plan

		var clean, degraded []uint64
		var degradedSum uint64
		for s := 0; s < samples; s++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			rts, stats, err := RunRoundtrips(cfg, s)
			if err != nil {
				return fmt.Errorf("recovery %v rate %.2f sample %d: %w", cell.Policy, cell.Rate, s, err)
			}
			for _, rt := range rts {
				if rt.Degraded {
					degraded = append(degraded, rt.Cycles)
					degradedSum += rt.Cycles
				} else {
					clean = append(clean, rt.Cycles)
				}
			}
			cell.Retransmits += stats.Retransmits
			cell.FastRetransmits += stats.FastRetransmits
		}
		sort.Slice(clean, func(a, b int) bool { return clean[a] < clean[b] })
		sort.Slice(degraded, func(a, b int) bool { return degraded[a] < degraded[b] })
		cell.CleanRT, cell.DegradedRT = len(clean), len(degraded)
		cell.CleanP50US = percentileUS(clean, 0.50, m)
		cell.CleanP99US = percentileUS(clean, 0.99, m)
		cell.DegradedP50US = percentileUS(degraded, 0.50, m)
		cell.DegradedP99US = percentileUS(degraded, 0.99, m)
		if len(degraded) > 0 {
			cell.DegradedMeanUS = float64(degradedSum) / float64(len(degraded)) / m.CyclesPerMicrosecond()
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// RecoveryDocOf converts comparison cells to their JSON form.
func RecoveryDocOf(cells []RecoveryCell) []obs.RecoveryCellDoc {
	out := make([]obs.RecoveryCellDoc, 0, len(cells))
	for _, c := range cells {
		out = append(out, obs.RecoveryCellDoc{
			Policy:          string(c.Policy),
			Rate:            c.Rate,
			CleanRT:         c.CleanRT,
			DegradedRT:      c.DegradedRT,
			CleanP50US:      c.CleanP50US,
			CleanP99US:      c.CleanP99US,
			DegradedP50US:   c.DegradedP50US,
			DegradedP99US:   c.DegradedP99US,
			DegradedMeanUS:  c.DegradedMeanUS,
			Retransmits:     c.Retransmits,
			FastRetransmits: c.FastRetransmits,
		})
	}
	return out
}
