package core

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/obs"
)

// FaultStudyConfig parameterizes the degraded-path latency study: for each
// layout strategy and fault rate it runs the ping-pong under a seeded fault
// plan and splits measured roundtrips into mainline (no fault injected
// during the roundtrip) and degraded (at least one fault) populations.
type FaultStudyConfig struct {
	Stack StackKind
	// Seed drives every cell's fault plan; identical seeds produce
	// byte-identical reports at any parallelism.
	Seed uint64
	// Rates are the per-frame fault intensities swept (see PlanForRate);
	// include 0 for the fault-free baseline.
	Rates []float64
	// Versions are the layout strategies compared.
	Versions []Version
	// Quality sets the per-cell measurement shape.
	Quality Quality
}

// DefaultFaultStudy is the standard study shape: the four constructive
// layout strategies at four fault intensities including the clean baseline.
func DefaultFaultStudy(kind StackKind, seed uint64) FaultStudyConfig {
	return FaultStudyConfig{
		Stack:    kind,
		Seed:     seed,
		Rates:    []float64{0, 0.02, 0.05, 0.10},
		Versions: []Version{STD, OUT, CLO, PIN},
		Quality:  Quality{Warmup: 4, Measured: 24, Samples: 2},
	}
}

// PlanForRate composes the per-frame fault plan used at one study point:
// loss and corruption at the full rate (the two faults the paper's
// outlining bet is about — retransmission and checksum-error handling),
// duplication and reordering at half rate.
func PlanForRate(seed uint64, rate float64) faults.Plan {
	return faults.Plan{
		Seed:        seed,
		LossProb:    rate,
		CorruptProb: rate,
		DupProb:     rate / 2,
		ReorderProb: rate / 2,
	}
}

// FaultCell is one (version, rate) measurement.
type FaultCell struct {
	Version Version
	Rate    float64

	// CleanUS and DegradedUS are the mean latencies of fault-free and
	// fault-affected measured roundtrips; CleanRT/DegradedRT count them.
	CleanUS, DegradedUS float64
	CleanRT, DegradedRT int

	// CleanPhases and DegradedPhases decompose each population's mean
	// roundtrip into the §4.3 phases; the split shows the degradation is
	// timer-wait and extra processing, not wire time.
	CleanPhases, DegradedPhases obs.PhaseSplit

	// Stats aggregates fault accounting over the cell's samples.
	Stats FaultStats
}

// FaultStudyCtx runs every (version, rate) cell of the study. Cells fan
// out over the worker pool and assemble in index order; within a cell,
// samples run serially with per-sample derived seeds, so the result is
// identical at any parallelism. ctx is checked between cells and between
// the samples within a cell, so a cancelled context stops the study at the
// next sample boundary.
func FaultStudyCtx(ctx context.Context, cfg FaultStudyConfig) ([]FaultCell, error) {
	if len(cfg.Rates) == 0 || len(cfg.Versions) == 0 {
		d := DefaultFaultStudy(cfg.Stack, cfg.Seed)
		if len(cfg.Rates) == 0 {
			cfg.Rates = d.Rates
		}
		if len(cfg.Versions) == 0 {
			cfg.Versions = d.Versions
		}
	}
	if cfg.Quality.Samples < 1 {
		cfg.Quality = DefaultFaultStudy(cfg.Stack, cfg.Seed).Quality
	}
	nr := len(cfg.Rates)
	cells := make([]FaultCell, len(cfg.Versions)*nr)
	err := forEachIndexedCtx(ctx, len(cells), CtxParallelism(ctx), func(i int) error {
		cell, err := runFaultCell(ctx, cfg, cfg.Versions[i/nr], cfg.Rates[i%nr], i)
		if err != nil {
			return fmt.Errorf("fault study %v rate %.2f: %w", cfg.Versions[i/nr], cfg.Rates[i%nr], err)
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// runFaultCell measures one (version, rate) point over the configured
// samples, consulting ctx between samples.
func runFaultCell(ctx context.Context, cfg FaultStudyConfig, v Version, rate float64, cellIdx int) (FaultCell, error) {
	rcfg := DefaultConfig(cfg.Stack, v)
	rcfg.Warmup = cfg.Quality.Warmup
	rcfg.Measured = cfg.Quality.Measured
	rcfg.Samples = cfg.Quality.Samples
	if rate > 0 {
		plan := PlanForRate(faults.Mix(cfg.Seed, uint64(cellIdx)), rate)
		rcfg.Faults = &plan
	}

	cell := FaultCell{Version: v, Rate: rate}
	var cleanSum, degradedSum float64
	var cleanPh, degradedPh obs.PhaseSplit
	for s := 0; s < rcfg.Samples; s++ {
		if err := ctx.Err(); err != nil {
			return cell, err
		}
		fs, err := runFaultSample(rcfg, s)
		if err != nil {
			return cell, fmt.Errorf("sample %d: %w", s, err)
		}
		cleanSum += fs.cleanSumUS
		degradedSum += fs.degradedSumUS
		cell.CleanRT += fs.cleanN
		cell.DegradedRT += fs.degradedN
		cleanPh.Add(fs.cleanPhases)
		degradedPh.Add(fs.degradedPhases)
		cell.Stats.Add(fs.stats)
	}
	if cell.CleanRT > 0 {
		cell.CleanUS = cleanSum / float64(cell.CleanRT)
		cell.CleanPhases = cleanPh.Scale(1 / float64(cell.CleanRT))
	}
	if cell.DegradedRT > 0 {
		cell.DegradedUS = degradedSum / float64(cell.DegradedRT)
		cell.DegradedPhases = degradedPh.Scale(1 / float64(cell.DegradedRT))
	}
	return cell, nil
}

// faultSample is one run's clean/degraded latency split. The phase splits
// are sums over the population's roundtrips, in µs.
type faultSample struct {
	cleanSumUS, degradedSumUS   float64
	cleanN, degradedN           int
	cleanPhases, degradedPhases obs.PhaseSplit
	stats                       FaultStats
}

// runFaultSample runs the ping-pong once and attributes each measured
// roundtrip to the clean or degraded population by whether the injector
// acted between the two completions bounding it.
func runFaultSample(cfg Config, sampleIdx int) (fs faultSample, err error) {
	defer recoverSample(cfg, sampleIdx, &err)
	roundtrips := cfg.Warmup + cfg.Measured
	hp, err := buildPair(cfg, sampleIdx, roundtrips)
	if err != nil {
		return faultSample{}, err
	}
	m := arch.DEC3000_600()

	// injAt[n] snapshots the injector's action count at the completion of
	// roundtrip n (1-based); index 0 covers handshake traffic. snaps[n]
	// freezes the phase counters at the same boundaries, so each
	// roundtrip's latency can be decomposed per population.
	injAt := make([]int, roundtrips+1)
	snaps := make([]phaseSnap, roundtrips+1)
	hp.onRoundtrip(func(n int) {
		if n >= 1 && n <= roundtrips {
			if hp.injector != nil {
				injAt[n] = hp.injector.Injected()
			}
			snaps[n] = hp.snapPhases()
		}
	})

	hp.startFn()
	if err := hp.finishRun(cfg, sampleIdx, roundtrips); err != nil {
		return faultSample{}, err
	}

	stamps := hp.stampFn()
	for n := cfg.Warmup + 1; n <= roundtrips; n++ {
		dtCycles := stamps[n-1] - stamps[n-2]
		dt := float64(dtCycles) / m.CyclesPerMicrosecond()
		ph := phaseSplit(snaps[n-1], snaps[n], dtCycles, m)
		if injAt[n] > injAt[n-1] {
			fs.degradedSumUS += dt
			fs.degradedN++
			fs.degradedPhases.Add(ph)
		} else {
			fs.cleanSumUS += dt
			fs.cleanN++
			fs.cleanPhases.Add(ph)
		}
	}
	fs.stats = hp.faultStats()
	hp.release()
	return fs, nil
}
