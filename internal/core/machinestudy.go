package core

import (
	"context"
	"fmt"

	"repro/internal/code"
	"repro/internal/faults"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/verify"
)

// MachineStudyConfig parameterizes the machine-matrix study: every layout
// version of one stack, measured on every selected machine model, at an
// optional set of fault rates. It answers the ROADMAP's scenario-diversity
// question — which of the paper's 1996 layout conclusions survive on
// differently shaped hardware.
type MachineStudyConfig struct {
	Stack StackKind
	// Models are the machine configurations swept, in report order.
	// Empty means the full curated matrix (machines.Matrix).
	Models []machines.Model
	// Versions are the layout versions compared on each machine. Empty
	// means all six (BAD..ALL).
	Versions []Version
	// Quality sets the per-cell measurement shape.
	Quality Quality
	// Rates are optional per-frame fault intensities (see PlanForRate);
	// empty means the clean rate 0 only. Non-zero rates measure whether a
	// machine changes the degraded-path story too.
	Rates []float64
	// Seed drives the fault plans of non-zero rates; identical seeds
	// produce byte-identical reports at any parallelism.
	Seed uint64
}

// DefaultMachineStudy is the standard study shape: the full matrix, all six
// layout versions, clean links, and a quick single-sample measurement per
// cell (the matrix multiplies cells fast; one sample per cell matches the
// lint smoke's precision needs).
func DefaultMachineStudy(kind StackKind, seed uint64) MachineStudyConfig {
	return MachineStudyConfig{
		Stack:    kind,
		Models:   machines.Matrix(),
		Versions: Versions(),
		Quality:  Quality{Warmup: 4, Measured: 12, Samples: 1},
		Rates:    []float64{0},
		Seed:     seed,
	}
}

// MachineCell is one (model, version, rate) measurement plus the static
// lint's prediction for the same program image on the same geometry.
type MachineCell struct {
	Model   machines.Model
	Version Version
	Rate    float64

	// TeUS and TpUS are end-to-end and traced processing latency; MCPI is
	// the traced memory CPI.
	TeUS, TpUS, MCPI float64
	// ICacheMisses and ICacheRepl are the traced invocation's i-cache
	// totals; the repl count is what the static lint predicts.
	ICacheMisses, ICacheRepl uint64
	// L2Misses and VictimHits are non-zero only on models with the
	// corresponding structure.
	L2Misses   uint64
	VictimHits uint64
	// LintPredictedRepl is verify.Lint's static per-set replacement
	// prediction for this version on this machine's i-cache geometry.
	LintPredictedRepl int
}

// MachineStudy runs every (model, version, rate) cell of the study. Cells
// fan out over the worker pool and assemble in index order, so the result
// is byte-identical at any parallelism.
func MachineStudy(cfg MachineStudyConfig) ([]MachineCell, error) {
	return MachineStudyCtx(context.Background(), cfg)
}

// MachineStudyCtx is MachineStudy with cooperative cancellation: ctx is
// checked between cells and between the samples within a cell.
func MachineStudyCtx(ctx context.Context, cfg MachineStudyConfig) ([]MachineCell, error) {
	cfg = cfg.withDefaults()
	nv, nr := len(cfg.Versions), len(cfg.Rates)
	cells := make([]MachineCell, len(cfg.Models)*nv*nr)
	err := forEachIndexedCtx(ctx, len(cells), CtxParallelism(ctx), func(i int) error {
		model := cfg.Models[i/(nv*nr)]
		v := cfg.Versions[(i/nr)%nv]
		rate := cfg.Rates[i%nr]
		cell, err := runMachineCell(ctx, cfg, model, v, rate, i)
		if err != nil {
			return fmt.Errorf("machine study %s/%v rate %.2f: %w", model.Name, v, rate, err)
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// withDefaults fills empty study dimensions from DefaultMachineStudy.
func (cfg MachineStudyConfig) withDefaults() MachineStudyConfig {
	d := DefaultMachineStudy(cfg.Stack, cfg.Seed)
	if len(cfg.Models) == 0 {
		cfg.Models = d.Models
	}
	if len(cfg.Versions) == 0 {
		cfg.Versions = d.Versions
	}
	if len(cfg.Rates) == 0 {
		cfg.Rates = d.Rates
	}
	if cfg.Quality.Samples < 1 {
		cfg.Quality = d.Quality
	}
	return cfg
}

// runMachineCell measures one (model, version, rate) point and lints the
// same image on the same geometry.
func runMachineCell(ctx context.Context, cfg MachineStudyConfig, model machines.Model, v Version, rate float64, cellIdx int) (MachineCell, error) {
	rcfg := cfg.Quality.Apply(DefaultConfig(cfg.Stack, v))
	rcfg.Machine = model.Machine
	if rate > 0 {
		plan := PlanForRate(faults.Mix(cfg.Seed, uint64(cellIdx)), rate)
		rcfg.Faults = &plan
	}
	res, err := RunCtx(ctx, rcfg)
	if err != nil {
		return MachineCell{}, err
	}
	s := res.First()
	cell := MachineCell{
		Model:        model,
		Version:      v,
		Rate:         rate,
		TeUS:         res.TeMeanUS,
		TpUS:         res.TpMeanUS(),
		MCPI:         res.MCPIMean(),
		ICacheMisses: s.ICache.Misses,
		ICacheRepl:   s.ICache.ReplMisses,
		L2Misses:     s.L2Cache.Misses,
		VictimHits:   s.VictimHits,
	}
	// Static cross-check: re-run the layout lint against this machine's
	// i-cache geometry so predicted and measured per-set replacements stay
	// comparable on every variant, not just the paper's machine.
	prog, err := BuildProgram(cfg.Stack, v, rcfg.Feat, rcfg.Strategy, model.Machine)
	if err != nil {
		return MachineCell{}, err
	}
	rep, err := lintReport(prog, cfg.Stack, v, model)
	if err != nil {
		return MachineCell{}, err
	}
	cell.LintPredictedRepl = rep.PredictedRepl
	return cell, nil
}

// lintReport lints one linked image against one model's geometry.
func lintReport(prog *code.Program, kind StackKind, v Version, model machines.Model) (*verify.Report, error) {
	rep, err := verify.Lint(prog, LintSpec(kind, v), model.Machine)
	if err != nil {
		return nil, fmt.Errorf("lint on %s: %w", model.Name, err)
	}
	return rep, nil
}

// MachineStudyDocOf converts a machine study to its JSON section.
func MachineStudyDocOf(cfg MachineStudyConfig, cells []MachineCell) *obs.MachinesDoc {
	cfg = cfg.withDefaults()
	doc := &obs.MachinesDoc{Stack: cfg.Stack.String(), Strategy: Bipartite.String(), Seed: cfg.Seed}
	for _, m := range cfg.Models {
		doc.Models = append(doc.Models, obs.MachineModelDoc{
			Name:       m.Name,
			Title:      m.Title,
			Provenance: m.Provenance,
			Machine:    m.Machine,
		})
	}
	for _, c := range cells {
		doc.Cells = append(doc.Cells, obs.MachineCellDoc{
			Model:             c.Model.Name,
			Version:           c.Version.String(),
			Rate:              c.Rate,
			TeUS:              c.TeUS,
			TpUS:              c.TpUS,
			MCPI:              c.MCPI,
			ICacheMisses:      c.ICacheMisses,
			ICacheRepl:        c.ICacheRepl,
			L2Misses:          c.L2Misses,
			VictimHits:        c.VictimHits,
			LintPredictedRepl: c.LintPredictedRepl,
		})
	}
	return doc
}
