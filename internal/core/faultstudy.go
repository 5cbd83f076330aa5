package core

import (
	"context"
	"fmt"
	"strings"

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
	// EventBudget overrides the per-sample watchdog (0 = default).
	EventBudget int
	// Plan, when non-nil, overrides PlanForRate as the rate→plan mapping
	// (e.g. a duplication/reordering-only plan isolates the degraded
	// *processing* penalty from retransmission-timeout waits). PlanDesc,
	// when set, replaces the default plan description in the report
	// header.
	Plan     func(seed uint64, rate float64) faults.Plan
	PlanDesc string
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

// Penalty is the degraded/clean latency ratio (0 when either population is
// empty).
func (c FaultCell) Penalty() float64 {
	if c.CleanRT == 0 || c.DegradedRT == 0 || c.CleanUS == 0 {
		return 0
	}
	return c.DegradedUS / c.CleanUS
}

// FaultStudy runs every (version, rate) cell of the study. Cells fan out
// over the worker pool and assemble in index order; within a cell, samples
// run serially with per-sample derived seeds, so the result is identical
// at any parallelism.
func FaultStudy(cfg FaultStudyConfig) ([]FaultCell, error) {
	return FaultStudyCtx(context.Background(), cfg)
}

// FaultStudyCtx is FaultStudy with cooperative cancellation: ctx is checked
// between cells and between the samples within a cell, so a cancelled
// context stops the study at the next sample boundary.
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
	rcfg.EventBudget = cfg.EventBudget
	if rate > 0 {
		mk := cfg.Plan
		if mk == nil {
			mk = PlanForRate
		}
		plan := mk(faults.Mix(cfg.Seed, uint64(cellIdx)), rate)
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
	return fs, nil
}

// RunFaultStudy renders the degraded-path latency study as a table: per
// strategy and fault rate, mainline vs degraded roundtrip latency, the
// degradation penalty, and the injected-fault counters reconciled against
// the link totals.
func RunFaultStudy(cfg FaultStudyConfig) (string, error) {
	return RunFaultStudyCtx(context.Background(), cfg)
}

// RunFaultStudyCtx is RunFaultStudy with cooperative cancellation (see
// FaultStudyCtx for the boundaries at which ctx is honored).
func RunFaultStudyCtx(ctx context.Context, cfg FaultStudyConfig) (string, error) {
	cells, err := FaultStudyCtx(ctx, cfg)
	if err != nil {
		return "", err
	}
	if cfg.Quality.Samples < 1 {
		cfg.Quality = DefaultFaultStudy(cfg.Stack, cfg.Seed).Quality
	}
	rcells, err := RecoveryComparisonCtx(ctx, cfg.Stack, cfg.Seed, cfg.Quality)
	if err != nil {
		return "", err
	}
	return RenderFaultStudy(cfg, cells, rcells), nil
}

// RenderFaultStudy renders computed fault-study cells and the recovery
// comparison run at the same seed and quality.
func RenderFaultStudy(cfg FaultStudyConfig, cells []FaultCell, rcells []RecoveryCell) string {
	// Re-derive the effective shape for the header (FaultStudy fills the
	// same defaults).
	if len(cfg.Rates) == 0 {
		cfg.Rates = DefaultFaultStudy(cfg.Stack, cfg.Seed).Rates
	}
	if cfg.Quality.Samples < 1 {
		cfg.Quality = DefaultFaultStudy(cfg.Stack, cfg.Seed).Quality
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Fault-injection study: mainline vs degraded-path latency (%v, seed %d)\n", cfg.Stack, cfg.Seed)
	desc := cfg.PlanDesc
	if desc == "" {
		if cfg.Plan != nil {
			desc = "custom (FaultStudyConfig.Plan)"
		} else {
			desc = "loss r, corruption r, duplication r/2, reordering r/2"
		}
	}
	fmt.Fprintf(&b, "Per-frame plan at rate r: %s.\n", desc)
	fmt.Fprintf(&b, "Quality: %d warmup + %d measured roundtrips, %d sample(s) per cell.\n\n",
		cfg.Quality.Warmup, cfg.Quality.Measured, cfg.Quality.Samples)
	b.WriteString("version  rate   clean[us]  degraded[us]  penalty  rt(c/d)   drop  corr   dup  reord  rexmit  abort  ckerr\n")
	b.WriteString("-------  ----   ---------  ------------  -------  -------   ----  ----   ---  -----  ------  -----  -----\n")
	var total, faulted FaultStats
	for _, c := range cells {
		degraded, penalty := "         -", "      -"
		if c.DegradedRT > 0 {
			degraded = fmt.Sprintf("%10.1f", c.DegradedUS)
			penalty = fmt.Sprintf("%6.2fx", c.Penalty())
		}
		inj := c.Stats.Injected
		fmt.Fprintf(&b, "%-7v  %.2f  %10.1f  %s  %s  %4d/%-3d  %5d %5d %5d  %5d  %6d  %5d  %5d\n",
			c.Version, c.Rate, c.CleanUS, degraded, penalty, c.CleanRT, c.DegradedRT,
			inj.Dropped, inj.Corrupted, inj.Duplicated, inj.Reordered,
			c.Stats.Retransmits, c.Stats.Aborts, c.Stats.ChecksumErrs)
		total.Add(c.Stats)
		if c.Rate > 0 {
			faulted.Add(c.Stats)
		}
	}
	b.WriteString("\nPhase split of the mean roundtrip (§4.3), per population [us]:\n")
	b.WriteString("version  rate  |      clean: wire   ctrl   proc  timer  |   degraded: wire   ctrl   proc  timer\n")
	b.WriteString("-------  ----  |             ----   ----   ----  -----  |             ----   ----   ----  -----\n")
	for _, c := range cells {
		cp := c.CleanPhases
		deg := "                 -      -      -      -"
		if c.DegradedRT > 0 {
			dp := c.DegradedPhases
			deg = fmt.Sprintf("            %6.1f %6.1f %6.1f %6.1f", dp.WireUS, dp.ControllerUS, dp.ProcessUS, dp.TimerWaitUS)
		}
		fmt.Fprintf(&b, "%-7v  %.2f  |           %6.1f %6.1f %6.1f %6.1f  | %s\n",
			c.Version, c.Rate, cp.WireUS, cp.ControllerUS, cp.ProcessUS, cp.TimerWaitUS, deg)
	}

	inj := faulted.Injected
	fmt.Fprintf(&b, "\nreconciliation (fault cells): injector saw %d/%d link frames, dropped %d/%d, duplicated %d/%d — exact per-run equality is a checked invariant\n",
		inj.Frames, faulted.LinkFrames, inj.Dropped, faulted.LinkDropped, inj.Duplicated, faulted.LinkDuplicated)
	fmt.Fprintf(&b, "link totals (all cells): %d frames = %d delivered + %d dropped - %d duplicated; %d corrupted, %d reordered in transit\n",
		total.LinkFrames, total.LinkDelivered, total.LinkDropped, total.LinkDuplicated,
		inj.Corrupted, inj.Reordered)

	b.WriteString("\n")
	b.WriteString(RenderRecoveryTable(rcells))
	return b.String()
}
