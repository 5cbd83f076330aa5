package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/arch"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/trace"
)

// RecordTrace runs one experiment sample and returns the client's
// instruction trace for a single steady-state path invocation — the
// trace-file artifact of the paper's methodology. The engine's
// differential test and the benchmark's simulator probes read its entries.
func RecordTrace(cfg Config) (*trace.Trace, error) {
	roundtrips := cfg.Warmup + cfg.Measured
	if roundtrips < 4 {
		cfg.Warmup, cfg.Measured = 4, 4
		roundtrips = 8
	}
	hp, err := buildPair(cfg, 0, roundtrips)
	if err != nil {
		return nil, err
	}
	t := &trace.Trace{}
	rec := t.Recorder()
	ch := hp.clientHost
	hp.onRoundtrip(func(n int) {
		switch n {
		case roundtrips - 2:
			ch.Engine.Observer = rec
		case roundtrips - 1:
			ch.Engine.Observer = nil
		}
	})
	hp.startFn()
	if err := hp.finishRun(cfg, 0, roundtrips); err != nil {
		return nil, fmt.Errorf("core: trace run: %w", err)
	}
	hp.release()
	if t.Len() == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	return t, nil
}

// A sweep is one sensitivity study: the machines it runs on and the pair
// of versions it compares on them.
type sweep struct {
	name string
	// title is the report's heading, formatted with the stack.
	title  string
	a, b   Version
	models func() ([]machines.Model, error)
}

// sweeps are the sensitivity studies Sensitivity runs, by name. The spec
// check and its error message both list them from here.
var sweeps = []sweep{
	{"cache", geometryTitle, STD, ALL, cacheSweep},
	// The paper's testbed against its concluding remark's "low-cost
	// 266 MHz processor with a 66 MB/s memory system".
	{"machine", geometryTitle, STD, ALL, selectModels("dec3000,future266")},
	// The paper observes that inlining is "frequently misused to avoid
	// replacement misses in the small associativity caches commonly found
	// in high-performance RISC architectures": how much of the layout
	// problem would LRU associativity have absorbed in hardware?
	{"assoc", "The %v BAD and ALL layouts across L1 associativity", BAD, ALL, selectModels("dec3000,l1-2way,l1-4way")},
}

const geometryTitle = "Sensitivity of the %v techniques to machine geometry"

// SweepNames lists the sweeps Sensitivity accepts, in order.
func SweepNames() []string {
	names := make([]string, len(sweeps))
	for i, s := range sweeps {
		names[i] = s.name
	}
	return names
}

// selectModels draws a sweep's machines from the curated matrix.
func selectModels(names string) func() ([]machines.Model, error) {
	return func() ([]machines.Model, error) { return machines.Select(names) }
}

// cacheSweep varies the i-cache size around the DEC 3000/600's 8 KB: the
// techniques matter most when the path does not fit.
func cacheSweep() ([]machines.Model, error) {
	var ms []machines.Model
	for _, kb := range []int{4, 8, 16, 32, 64} {
		m := arch.DEC3000_600()
		m.ICacheBytes = kb * 1024
		ms = append(ms, machines.Model{Name: fmt.Sprintf("icache-%dk", kb), Machine: m})
	}
	return ms, nil
}

// Sensitivity runs the named sweep: the machine study measures the sweep's
// two versions on each of its machines, with code placed for that machine,
// and each row reports both mCPIs and the second version's processing-time
// (Tp) advantage. For STD vs ALL that is the paper's argument that the
// techniques grow more important as the processor/memory gap widens.
func Sensitivity(ctx context.Context, kind StackKind, name string, q Quality) (obs.Table, error) {
	i := slices.IndexFunc(sweeps, func(s sweep) bool { return s.name == name })
	if i < 0 {
		return obs.Table{}, fmt.Errorf("core: unknown sweep %q (want %s)", name, strings.Join(SweepNames(), " or "))
	}
	sw := sweeps[i]
	models, err := sw.models()
	if err != nil {
		return obs.Table{}, err
	}
	cells, err := MachineStudyCtx(ctx, MachineStudyConfig{
		Stack:    kind,
		Models:   models,
		Versions: []Version{sw.a, sw.b},
		Quality:  Quality{Warmup: q.Warmup, Measured: q.Measured, Samples: 1},
	})
	if err != nil {
		return obs.Table{}, err
	}
	t := obs.Table{Name: "sensitivity", Title: fmt.Sprintf(sw.title, kind),
		Columns: []string{"machine", strings.ToLower(sw.a.String()) + "_mcpi", strings.ToLower(sw.b.String()) + "_mcpi", "speedup_pct", "saved_us"}}
	// Cells are model-major: each model's a and b cells are adjacent.
	for i, m := range models {
		a, b := cells[2*i], cells[2*i+1]
		saved := a.TpUS - b.TpUS
		t.Rows = append(t.Rows, []string{m.Name, fmt.Sprintf("%.2f", a.MCPI), fmt.Sprintf("%.2f", b.MCPI),
			fmt.Sprintf("%.1f", 100*saved/a.TpUS), fmt.Sprintf("%.1f", saved)})
	}
	return t, nil
}
