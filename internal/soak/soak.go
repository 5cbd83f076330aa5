// Package soak is the long-running robustness driver: it runs roundtrip
// batches across a schedule of fault regimes (clean → loss → burst loss →
// duplicate/reorder storms), for every recovery policy and layout version
// under test, continuously re-verifying the simulation invariants and
// accumulating streaming latency digests per cell. The run checkpoints its
// full state to a journal at chunk boundaries, so an interrupted soak
// resumes and produces byte-identical final output — at any worker-pool
// width.
//
// Determinism is inherited from the layers below (seeded fault plans,
// virtual time) and preserved here by construction: the schedule is a flat
// unit list, units fan out over core.ForEachIndexedCtx but fold into cell
// state serially in unit order, and digests merge commutatively. The unit
// about to run is a pure function of the journal, never of wall-clock time.
package soak

import (
	"context"
	"fmt"
	"hash/crc32"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/protocols/recovery"
	"repro/internal/storage"
)

// Regime names one fault environment of the schedule. Plan derives the
// fault plan for a cell seed; nil Plan means a clean (fault-free) regime.
type Regime struct {
	Name string
	Plan func(seed uint64) faults.Plan
}

// DefaultRegimes is the standard soak schedule: clean baseline, independent
// loss, Gilbert-Elliott burst loss, and a duplication/reordering storm.
func DefaultRegimes() []Regime {
	return []Regime{
		{Name: "clean"},
		{Name: "loss", Plan: func(seed uint64) faults.Plan {
			return faults.Plan{Seed: seed, LossProb: 0.10}
		}},
		{Name: "burst", Plan: func(seed uint64) faults.Plan {
			return faults.Plan{Seed: seed, Burst: faults.BurstPlan{
				EnterProb: 0.05, ExitProb: 0.5, LossProb: 0.4}}
		}},
		{Name: "storm", Plan: func(seed uint64) faults.Plan {
			return faults.Plan{Seed: seed, DupProb: 0.15, ReorderProb: 0.15}
		}},
	}
}

// Config shapes a soak run. The cell grid is Regimes × Policies × Versions;
// each cell runs BatchesPerCell batches of Warmup+BatchRoundtrips
// roundtrips, each batch an independent simulation (its own hosts and
// per-batch derived fault seed).
type Config struct {
	Stack core.StackKind
	// Seed drives every cell's fault plan; identical seeds reproduce the
	// soak byte-for-byte.
	Seed     uint64
	Versions []core.Version
	Policies []recovery.Kind
	Regimes  []Regime

	// Warmup roundtrips precede the BatchRoundtrips measured ones in each
	// batch (unit).
	Warmup          int
	BatchRoundtrips int
	BatchesPerCell  int

	// CheckpointEvery is the chunk size in units: the run folds and
	// journals state every that many units. CheckpointPath enables
	// journaling; empty runs without checkpoints.
	CheckpointEvery int
	CheckpointPath  string

	// EventBudget overrides the per-batch watchdog (0 = default).
	EventBudget int

	// StopAfterUnits, when positive, stops the run at the first chunk
	// boundary at or past that many units — the deterministic stand-in
	// for a kill, used by the resume tests and the -soakstop flag.
	StopAfterUnits int

	// FS is the filesystem the checkpoint journal is written through; nil
	// means the real disk. Tests inject a storage fault layer here. FS is
	// not part of the configuration fingerprint: it changes where bytes
	// land, never what they are.
	FS storage.FS
}

// DefaultConfig is the standard soak shape: STD vs ALL layouts, fixed vs
// adaptive recovery, the default regime schedule.
func DefaultConfig(kind core.StackKind, seed uint64) Config {
	return Config{
		Stack:           kind,
		Seed:            seed,
		Versions:        []core.Version{core.STD, core.ALL},
		Policies:        []recovery.Kind{recovery.Fixed, recovery.Adaptive},
		Regimes:         DefaultRegimes(),
		Warmup:          3,
		BatchRoundtrips: 13,
		BatchesPerCell:  4,
		CheckpointEvery: 8,
	}
}

// normalize fills zero fields from the defaults.
func (c Config) normalize() Config {
	d := DefaultConfig(c.Stack, c.Seed)
	if len(c.Versions) == 0 {
		c.Versions = d.Versions
	}
	if len(c.Policies) == 0 {
		c.Policies = d.Policies
	}
	if len(c.Regimes) == 0 {
		c.Regimes = d.Regimes
	}
	if c.Warmup <= 0 {
		c.Warmup = d.Warmup
	}
	if c.BatchRoundtrips <= 0 {
		c.BatchRoundtrips = d.BatchRoundtrips
	}
	if c.BatchesPerCell <= 0 {
		c.BatchesPerCell = d.BatchesPerCell
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = d.CheckpointEvery
	}
	return c
}

// cellCount is the size of the regime × policy × version grid.
func (c Config) cellCount() int {
	return len(c.Regimes) * len(c.Policies) * len(c.Versions)
}

// totalUnits is the schedule length.
func (c Config) totalUnits() int { return c.cellCount() * c.BatchesPerCell }

// cellIdent decomposes a cell index into its grid coordinates.
func (c Config) cellIdent(cell int) (Regime, recovery.Kind, core.Version) {
	nv := len(c.Versions)
	np := len(c.Policies)
	return c.Regimes[cell/(np*nv)], c.Policies[(cell/nv)%np], c.Versions[cell%nv]
}

// fingerprint hashes the soak's semantic shape — everything that changes
// which unit computes what — so a journal from a different configuration is
// rejected instead of silently continued.
func (c Config) fingerprint() string {
	s := fmt.Sprintf("%v|%d|%d/%d/%d|%d", c.Stack, c.Seed,
		c.Warmup, c.BatchRoundtrips, c.BatchesPerCell, c.EventBudget)
	for _, r := range c.Regimes {
		s += "|r:" + r.Name
	}
	for _, p := range c.Policies {
		s += "|p:" + string(p)
	}
	for _, v := range c.Versions {
		s += "|v:" + v.String()
	}
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE([]byte(s)))
}

// cellState is one cell's journaled accumulator.
type cellState struct {
	Units    int             `json:"units"`
	All      obs.Digest      `json:"all"`
	Degraded obs.Digest      `json:"degraded"`
	Stats    core.FaultStats `json:"stats"`
}

// Checks counts the invariant verifications the run performed, so a report
// claiming N units can be audited for having actually checked them N times.
type Checks struct {
	// Units counts batches that completed under the full finishRun
	// invariant set (watchdog, drain, monotonic stamps).
	Units int `json:"units"`
	// FrameAccounting counts per-unit re-verifications of the link's
	// conservation law from the recorded stats.
	FrameAccounting int `json:"frame_accounting"`
	// Reconciliation counts per-unit injector-vs-link reconciliations
	// (only units with an active fault plan).
	Reconciliation int `json:"reconciliation"`
}

// state is the complete resumable run state: the next unit to execute plus
// every cell accumulator and the check counters.
type state struct {
	NextUnit int         `json:"next_unit"`
	Cells    []cellState `json:"cells"`
	Checks   Checks      `json:"checks"`
}

// Cell is one finished cell of the result, with its grid identity attached.
type Cell struct {
	Regime  string
	Policy  recovery.Kind
	Version core.Version
	Units   int
	// All holds every measured roundtrip; Degraded the subset the
	// injector acted on.
	All, Degraded obs.Digest
	Stats         core.FaultStats
}

// Result is a soak run's outcome. Stopped marks a run suspended at a chunk
// boundary by StopAfterUnits (resume it to completion); Resumed marks a run
// continued from a journal.
type Result struct {
	Stack   core.StackKind
	Units   int
	Total   int
	Stopped bool
	Resumed bool
	Checks  Checks
	Cells   []Cell
}

// VerifyUnitStats re-checks the per-run invariants from a unit's recorded
// stats: the link's frame-conservation law always, and exact injector
// reconciliation when a fault plan was active. finishRun already enforced
// both against the live objects; this second check guards the recorded
// numbers the digests and reports are built from, and its call count is
// exported so tests can prove no unit skipped it.
func VerifyUnitStats(unit int, stats core.FaultStats, injActive bool) error {
	if stats.LinkDelivered+stats.LinkDropped != stats.LinkFrames+stats.LinkDuplicated {
		return fmt.Errorf("soak unit %d: frame accounting: delivered %d + dropped %d != frames %d + duplicated %d",
			unit, stats.LinkDelivered, stats.LinkDropped, stats.LinkFrames, stats.LinkDuplicated)
	}
	if injActive {
		in := stats.Injected
		if in.Frames != stats.LinkFrames || in.Dropped != stats.LinkDropped ||
			in.Duplicated != stats.LinkDuplicated {
			return fmt.Errorf("soak unit %d: injector reconciliation: injector %v vs link frames=%d dropped=%d duplicated=%d",
				unit, in, stats.LinkFrames, stats.LinkDropped, stats.LinkDuplicated)
		}
	}
	return nil
}

// unitOut is one executed unit's raw output, produced by a worker and
// folded serially.
type unitOut struct {
	rts   []core.Roundtrip
	stats core.FaultStats
}

// runUnit executes one batch: cell = unit / BatchesPerCell selects the
// (regime, policy, version) coordinates, batch = unit % BatchesPerCell is
// the sample index (distinct host perturbation and per-batch fault seed).
func runUnit(cfg Config, unit int) (unitOut, error) {
	cell, batch := unit/cfg.BatchesPerCell, unit%cfg.BatchesPerCell
	regime, policy, version := cfg.cellIdent(cell)

	rcfg := core.DefaultConfig(cfg.Stack, version)
	rcfg.Warmup = cfg.Warmup
	rcfg.Measured = cfg.BatchRoundtrips
	rcfg.Samples = 1
	rcfg.Recovery = policy
	rcfg.EventBudget = cfg.EventBudget
	if regime.Plan != nil {
		plan := regime.Plan(faults.Mix(cfg.Seed, uint64(cell)))
		rcfg.Faults = &plan
	}
	rts, stats, err := core.RunRoundtrips(rcfg, batch)
	if err != nil {
		return unitOut{}, fmt.Errorf("soak unit %d (%s/%v/%v batch %d): %w",
			unit, regime.Name, policy, version, batch, err)
	}
	return unitOut{rts: rts, stats: stats}, nil
}

// Run starts a fresh soak (overwriting any journal at CheckpointPath).
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run with cooperative cancellation: ctx is consulted at every
// chunk boundary, so a cancelled run stops with the journal intact at the
// last completed chunk and ResumeCtx continues it to a byte-identical
// result.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	st := &state{Cells: make([]cellState, cfg.cellCount())}
	return run(ctx, cfg, st, false)
}

// Resume continues a soak from the journal at cfg.CheckpointPath; the
// configuration must match the one the journal was written under. Resuming
// a completed journal returns its result unchanged.
func Resume(cfg Config) (*Result, error) {
	return ResumeCtx(context.Background(), cfg)
}

// ResumeCtx is Resume with cooperative cancellation (see RunCtx).
func ResumeCtx(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	if cfg.CheckpointPath == "" {
		return nil, &JournalError{Path: "", Reason: "missing",
			Err: fmt.Errorf("resume requires a checkpoint path")}
	}
	st, err := loadJournal(cfg.CheckpointPath, cfg)
	if err != nil {
		return nil, err
	}
	return run(ctx, cfg, st, true)
}

// run executes the schedule from st.NextUnit: chunks of CheckpointEvery
// units fan out over the worker pool, fold in unit order, verify, and
// checkpoint. The fold order makes journal bytes — and therefore the final
// result — independent of the pool width. ctx is consulted at chunk
// boundaries only, so cancellation never loses completed work: the journal
// always reflects the last fully folded chunk.
func run(ctx context.Context, cfg Config, st *state, resumed bool) (*Result, error) {
	total := cfg.totalUnits()
	for st.NextUnit < total {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cfg.StopAfterUnits > 0 && st.NextUnit >= cfg.StopAfterUnits {
			return result(cfg, st, true, resumed), nil
		}
		end := st.NextUnit + cfg.CheckpointEvery
		if end > total {
			end = total
		}
		n := end - st.NextUnit
		first := st.NextUnit
		outs := make([]unitOut, n)
		err := core.ForEachIndexedCtx(ctx, n, core.CtxParallelism(ctx), func(i int) error {
			out, err := runUnit(cfg, first+i)
			if err != nil {
				return err
			}
			outs[i] = out
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i, out := range outs {
			unit := first + i
			cell := unit / cfg.BatchesPerCell
			regime, _, _ := cfg.cellIdent(cell)
			if err := VerifyUnitStats(unit, out.stats, regime.Plan != nil); err != nil {
				return nil, err
			}
			st.Checks.Units++
			st.Checks.FrameAccounting++
			if regime.Plan != nil {
				st.Checks.Reconciliation++
			}
			cs := &st.Cells[cell]
			cs.Units++
			for _, rt := range out.rts {
				cs.All.Add(rt.Cycles)
				if rt.Degraded {
					cs.Degraded.Add(rt.Cycles)
				}
			}
			cs.Stats.Add(out.stats)
		}
		st.NextUnit = end
		if cfg.CheckpointPath != "" {
			if err := ensureDir(cfg.FS, cfg.CheckpointPath); err != nil {
				return nil, &JournalError{Path: cfg.CheckpointPath, Reason: "io", Err: err}
			}
			if err := saveJournal(cfg.CheckpointPath, cfg, st); err != nil {
				return nil, err
			}
		}
	}
	return result(cfg, st, false, resumed), nil
}

// result assembles the exported Result from the run state.
func result(cfg Config, st *state, stopped, resumed bool) *Result {
	res := &Result{
		Stack:   cfg.Stack,
		Units:   st.NextUnit,
		Total:   cfg.totalUnits(),
		Stopped: stopped,
		Resumed: resumed,
		Checks:  st.Checks,
	}
	for i, cs := range st.Cells {
		regime, policy, version := cfg.cellIdent(i)
		res.Cells = append(res.Cells, Cell{
			Regime:   regime.Name,
			Policy:   policy,
			Version:  version,
			Units:    cs.Units,
			All:      cs.All,
			Degraded: cs.Degraded,
			Stats:    cs.Stats,
		})
	}
	return res
}
