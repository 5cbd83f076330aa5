package core

import (
	"context"
	"fmt"
	"strings"

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
	// Strategy selects the cloned-code layout for CLO/ALL.
	Strategy CloneStrategy
	// Quality sets the per-cell measurement shape.
	Quality Quality
	// Rates are optional per-frame fault intensities (see PlanForRate);
	// empty means the clean rate 0 only. Non-zero rates measure whether a
	// machine changes the degraded-path story too.
	Rates []float64
	// Seed drives the fault plans of non-zero rates; identical seeds
	// produce byte-identical reports at any parallelism.
	Seed uint64
	// EventBudget overrides the per-sample watchdog (0 = default).
	EventBudget int
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
	rcfg.Strategy = cfg.Strategy
	rcfg.EventBudget = cfg.EventBudget
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
	prog, err := BuildProgram(cfg.Stack, v, rcfg.Feat, cfg.Strategy, model.Machine)
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

// RenderMachineStudy formats the study as the text report protolat
// -machines prints: one block per machine with every version's latency and
// cache behaviour, then a per-machine summary of what each technique still
// buys relative to STD.
func RenderMachineStudy(cfg MachineStudyConfig, cells []MachineCell) string {
	cfg = cfg.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "Machine-model matrix: layout versions across machine shapes (%v stack, %v clone layout)\n", cfg.Stack, cfg.Strategy)
	fmt.Fprintf(&b, "Quality: %d warmup + %d measured roundtrips, %d sample(s) per cell.\n",
		cfg.Quality.Warmup, cfg.Quality.Measured, cfg.Quality.Samples)
	b.WriteString("Lint column is the static verifier's predicted steady-state i-cache replacements on the same geometry.\n\n")

	showRate := len(cfg.Rates) > 1 || (len(cfg.Rates) == 1 && cfg.Rates[0] > 0)
	for _, model := range cfg.Models {
		fmt.Fprintf(&b, "%s — %s\n", model.Name, model.Title)
		if showRate {
			b.WriteString("version  rate    Te[us]    Tp[us]   mCPI  i-miss  i-repl  lint  l2-miss  victim\n")
			b.WriteString("-------  ----    ------    ------   ----  ------  ------  ----  -------  ------\n")
		} else {
			b.WriteString("version    Te[us]    Tp[us]   mCPI  i-miss  i-repl  lint  l2-miss  victim\n")
			b.WriteString("-------    ------    ------   ----  ------  ------  ----  -------  ------\n")
		}
		for _, c := range cells {
			if c.Model.Name != model.Name {
				continue
			}
			if showRate {
				fmt.Fprintf(&b, "%-7v  %.2f  %8.1f  %8.1f  %5.2f  %6d  %6d  %4d  %7d  %6d\n",
					c.Version, c.Rate, c.TeUS, c.TpUS, c.MCPI,
					c.ICacheMisses, c.ICacheRepl, c.LintPredictedRepl, c.L2Misses, c.VictimHits)
			} else {
				fmt.Fprintf(&b, "%-7v  %8.1f  %8.1f  %5.2f  %6d  %6d  %4d  %7d  %6d\n",
					c.Version, c.TeUS, c.TpUS, c.MCPI,
					c.ICacheMisses, c.ICacheRepl, c.LintPredictedRepl, c.L2Misses, c.VictimHits)
			}
		}
		b.WriteString("\n")
	}

	b.WriteString(renderMachineGains(cfg, cells))
	return b.String()
}

// renderMachineGains summarizes, per machine, the processing-time (Tp)
// saving each constructive technique still delivers over STD at the clean
// rate. Tp is used rather than Te because the network wire model charges
// fixed 175 MHz cycle counts, which skews Te's constant wire component on
// clock-scaled models (future266); Tp is pure client CPU time and
// comparable everywhere.
func renderMachineGains(cfg MachineStudyConfig, cells []MachineCell) string {
	var b strings.Builder
	b.WriteString("Tp saving over STD at rate 0 (positive = technique still pays):\n")
	b.WriteString("machine      OUT      CLO      PIN      ALL   bad-penalty\n")
	b.WriteString("-------      ---      ---      ---      ---   -----------\n")
	tp := func(model string, v Version) float64 {
		for _, c := range cells {
			if c.Model.Name == model && c.Version == v && c.Rate == 0 {
				return c.TpUS
			}
		}
		return 0
	}
	gain := func(model string, v Version, std float64) string {
		t := tp(model, v)
		if t == 0 || std == 0 {
			return "      -"
		}
		return fmt.Sprintf("%+6.1f%%", (std-t)/std*100)
	}
	for _, model := range cfg.Models {
		std := tp(model.Name, STD)
		if std == 0 {
			continue
		}
		badPen := "          -"
		if bad := tp(model.Name, BAD); bad != 0 {
			badPen = fmt.Sprintf("%10.2fx", bad/std)
		}
		fmt.Fprintf(&b, "%-9s %s  %s  %s  %s  %s\n", model.Name,
			gain(model.Name, OUT, std), gain(model.Name, CLO, std),
			gain(model.Name, PIN, std), gain(model.Name, ALL, std), badPen)
	}
	b.WriteString("\nNote: Te on clock-scaled models (future266) mixes the client's faster CPU with the\n")
	b.WriteString("unchanged 100 Mbit wire, whose cycle constants are calibrated at 175 MHz; compare\n")
	b.WriteString("Tp (pure CPU time) across machines and Te only within one machine.\n")
	return b.String()
}

// MachineStudyDocOf converts a machine study to its JSON section.
func MachineStudyDocOf(cfg MachineStudyConfig, cells []MachineCell) *obs.MachinesDoc {
	cfg = cfg.withDefaults()
	doc := &obs.MachinesDoc{Stack: cfg.Stack.String(), Strategy: cfg.Strategy.String(), Seed: cfg.Seed}
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
