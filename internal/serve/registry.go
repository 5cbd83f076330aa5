package serve

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/protocols/recovery"
	"repro/internal/soak"
	"repro/internal/storage"
)

// Env carries how a study executes, never what it computes: nothing in it
// enters the fingerprint or changes a document's bytes.
type Env struct {
	// EventBudget overrides the per-sample simulation watchdog (0 =
	// library default).
	EventBudget int
	// FS is the filesystem soak checkpoints go through (nil = real disk).
	FS storage.FS
	// Checkpoint is the soak's journal path ("" = no checkpoints).
	Checkpoint string
	// Resume continues the soak from its Checkpoint journal.
	Resume bool
	// StopAfter stops the soak at the first chunk boundary at or past this
	// many units (0 = run to completion).
	StopAfter int
}

// Output is what a study yields.
type Output struct {
	// Doc is the study's document, its manifest complete but for the
	// checkout identity (git_describe), which the shell stamps. It is nil
	// for a soak stopped early: a document describes a finished schedule.
	Doc *obs.Document
	// Text renders the report the CLI prints. Work that only the text
	// needs happens inside it, so a caller that wants only the document —
	// the daemon — never pays for it.
	Text func() (string, error)
}

// An entry is one kind of study: the parameters it reads and how it
// computes its document and text.
type entry struct {
	kind string
	// params lists, in the manifest command's order, the parameters the
	// kind reads and the literal flag that selects it ("-faults"). Every
	// kind also carries stack and quality; a kind that does not list one
	// of them canonicalizes a valid value to the default. A trailing "?"
	// keeps a parameter off the command while it holds its default.
	params []string
	// run computes the study into out, whose Doc already holds the
	// manifest.
	run func(ctx context.Context, s Spec, env Env, out *Output) error
}

// declared names the parameters the entry reads, without literal flags
// and marks.
func (e *entry) declared() []string {
	var out []string
	for _, w := range e.params {
		if name := strings.TrimSuffix(w, "?"); params[name].keep != nil {
			out = append(out, name)
		}
	}
	return out
}

// registry holds one entry per kind, in the order errors and docs list
// them.
var registry = []*entry{
	{kind: "run", params: []string{"stack", "version", "samples", "policy?", "classifier?", "quality?"}, run: runOne},
	{kind: "table", params: []string{"table", "quality"}, run: runTable},
	{kind: "figure", params: []string{"figure"}, run: runFigure},
	{kind: "all", params: []string{"quality"}, run: runAll},
	{kind: "faults", params: []string{"-faults", "stack", "seed", "rates", "quality"}, run: runFaults},
	{kind: "soak", params: []string{"-soak", "stack", "seed", "quality", "soak_batches?", "soak_roundtrips?"}, run: runSoak},
	{kind: "lint", params: []string{"-lint", "stack"}, run: runLint},
	{kind: "profile", params: []string{"-profile", "stack", "top", "quality"}, run: runProfile},
	{kind: "machines", params: []string{"models", "stack", "seed", "rates", "quality"}, run: runMachines},
	{kind: "optimize", params: []string{"models", "stack", "seed", "budget", "candidates", "quality"}, run: runOptimize},
	{kind: "throughput", params: []string{"-throughput"}, run: runThroughput},
	{kind: "multiconn", params: []string{"-multiconn"}, run: runMultiConn},
	{kind: "sensitivity", params: []string{"sweep", "stack", "quality"}, run: runSensitivity},
}

// Kinds lists the registered kinds.
func Kinds() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.kind
	}
	return out
}

func lookup(kind string) *entry {
	for _, e := range registry {
		if e.kind == kind {
			return e
		}
	}
	return nil
}

// Run computes the study a spec describes. The spec is normalized and
// validated first, so an invalid one fails with a *SpecError before any
// work starts.
func Run(ctx context.Context, spec Spec, env Env) (*Output, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	out := &Output{Doc: &obs.Document{Manifest: core.NewManifest(spec.command(), spec.Seed, spec.quality())}}
	if err := lookup(spec.Kind).run(ctx, spec, env, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Per-cell qualities the studies use in place of the presets.
var (
	// studyPaperQuality is the paper quality of the machine study and the
	// layout search's confirmation runs.
	studyPaperQuality = core.Quality{Warmup: 8, Measured: 24, Samples: 3}
	// faultQuickQuality is the fault study's quick quality.
	faultQuickQuality = core.Quality{Warmup: 3, Measured: 12, Samples: 1}
)

func text(s string) func() (string, error) { return func() (string, error) { return s, nil } }

// setTable stores the result of a study that yields one table.
func (out *Output) setTable(t string, data obs.Table, err error) error {
	if err != nil {
		return err
	}
	out.Doc.Tables, out.Text = []obs.Table{data}, text(t)
	return nil
}

// The entries' run functions receive specs Run has validated, so
// re-parsing a validated field cannot fail.

func runOne(ctx context.Context, s Spec, env Env, out *Output) error {
	ver, _ := s.version()
	rk, _ := recovery.ParseKind(s.Policy)
	q := s.quality()
	cfg := core.DefaultConfig(s.stackKind(), ver)
	cfg.Warmup, cfg.Measured, cfg.Samples = q.Warmup, q.Measured, s.Samples
	cfg.UseClassifier = s.Classifier
	cfg.Recovery = rk
	cfg.EventBudget = env.EventBudget
	cfg.Profile = true // observation-only: the text is identical unprofiled
	res, err := core.RunCtx(ctx, cfg)
	if err != nil {
		return err
	}
	out.Doc.Runs = []obs.Run{core.RunDoc(res)}
	out.Text = func() (string, error) {
		f := res.First()
		return fmt.Sprintf("%v %v: Te %.1f +- %.2f us | Tp %.1f us | %0.f instrs | CPI %.2f (iCPI %.2f, mCPI %.2f)\n"+
			"  i-cache %v | d-cache/wb %v | b-cache %v\n"+
			"  phases: wire %.1f us | controller %.1f us | processing %.1f us | timer wait %.1f us",
			cfg.Stack, ver, res.TeMeanUS, res.TeStdUS, f.TpUS, f.TraceLen, f.CPI, f.ICPI, f.MCPI,
			f.ICache, f.DCache, f.BCache,
			f.Phases.WireUS, f.Phases.ControllerUS, f.Phases.ProcessUS, f.Phases.TimerWaitUS), nil
	}
	return nil
}

// sweep is one stack's version sweep, the input of tables 4..9.
type sweep = map[core.Version]*core.Result

// sweepTables are tables 4/5 (one exhibit), 6, 7, 8 and 9, in report
// order.
var sweepTables = []struct {
	text func(tcpip, rpc sweep) string
	data func(tcpip, rpc sweep) []obs.Table
}{
	{core.Table45, core.Table45Data},
	{core.Table6, one(core.Table6Data)},
	{core.Table7, one(core.Table7Data)},
	{core.Table8, one(core.Table8Data)},
	{core.Table9, one(core.Table9Data)},
}

func one(f func(tcpip, rpc sweep) obs.Table) func(tcpip, rpc sweep) []obs.Table {
	return func(tcpip, rpc sweep) []obs.Table { return []obs.Table{f(tcpip, rpc)} }
}

// sweeps runs both stacks' version sweeps, profiled so the document
// carries the per-function attribution behind the tables' aggregates.
func sweeps(ctx context.Context, q core.Quality, doc *obs.Document) (tcpip, rpc sweep, err error) {
	if tcpip, err = core.RunVersionsProfiledCtx(ctx, core.StackTCPIP, q); err != nil {
		return nil, nil, err
	}
	if rpc, err = core.RunVersionsProfiledCtx(ctx, core.StackRPC, q); err != nil {
		return nil, nil, err
	}
	doc.Runs = append(core.RunsDoc(tcpip), core.RunsDoc(rpc)...)
	return tcpip, rpc, nil
}

func runTable(ctx context.Context, s Spec, env Env, out *Output) error {
	q := s.quality()
	if s.Table <= 3 {
		full := []func(core.Quality) (string, obs.Table, error){core.Table1Full, core.Table2Full, core.Table3Full}
		return out.setTable(full[s.Table-1](q))
	}
	tcpip, rpc, err := sweeps(ctx, q, out.Doc)
	if err != nil {
		return err
	}
	t := sweepTables[max(s.Table-5, 0)]
	out.Doc.Tables = t.data(tcpip, rpc)
	out.Text = func() (string, error) { return t.text(tcpip, rpc), nil }
	return nil
}

// figures are Figures 1 and 2: name, title and renderer.
var figures = []struct {
	name, title string
	render      func() (string, error)
}{
	{"figure1", "Test Protocol Stacks", core.Figure1},
	{"figure2", "Effects of Outlining and Cloning on the i-cache footprint", core.Figure2},
}

func runFigure(ctx context.Context, s Spec, env Env, out *Output) error {
	f := figures[s.Table-1]
	t, err := f.render()
	if err != nil {
		return err
	}
	out.Doc.Figures, out.Text = []obs.Figure{{Name: f.name, Title: f.title, Text: t}}, text(t)
	return nil
}

// runAll is the full evaluation report. Its document holds tables 4..9
// and their runs; the text adds the figures and tables 1..3, measured only
// when the text is asked for.
func runAll(ctx context.Context, s Spec, env Env, out *Output) error {
	q := s.quality()
	tcpip, rpc, err := sweeps(ctx, q, out.Doc)
	if err != nil {
		return err
	}
	for _, t := range sweepTables {
		out.Doc.Tables = append(out.Doc.Tables, t.data(tcpip, rpc)...)
	}
	out.Text = func() (string, error) {
		var parts []string
		for _, f := range []func() (string, error){
			core.Figure1,
			func() (string, error) { return core.Table1(q) },
			func() (string, error) { return core.Table2(q) },
			func() (string, error) { return core.Table3(q) },
		} {
			p, err := f()
			if err != nil {
				return "", err
			}
			parts = append(parts, p)
		}
		for _, t := range sweepTables {
			parts = append(parts, t.text(tcpip, rpc))
		}
		f2, err := core.Figure2()
		if err != nil {
			return "", err
		}
		return strings.Join(append(parts, f2), "\n") + "\n", nil
	}
	return nil
}

func runFaults(ctx context.Context, s Spec, env Env, out *Output) error {
	cfg := core.DefaultFaultStudy(s.stackKind(), s.Seed)
	if s.Quality != "paper" {
		cfg.Quality = faultQuickQuality
	}
	if r := s.rates(); r != nil {
		cfg.Rates = r
	}
	cfg.EventBudget = env.EventBudget
	cells, err := core.FaultStudyCtx(ctx, cfg)
	if err != nil {
		return err
	}
	rcells, err := core.RecoveryComparisonCtx(ctx, cfg.Stack, cfg.Seed, cfg.Quality)
	if err != nil {
		return err
	}
	out.Doc.FaultStudy = core.FaultStudyDocOf(cfg, cells)
	out.Doc.FaultStudy.Recovery = core.RecoveryDocOf(rcells)
	out.Text = func() (string, error) { return core.RenderFaultStudy(cfg, cells, rcells), nil }
	return nil
}

func runSoak(ctx context.Context, s Spec, env Env, out *Output) error {
	cfg := soak.DefaultConfig(s.stackKind(), s.Seed)
	if s.Quality == "paper" {
		cfg.BatchesPerCell, cfg.BatchRoundtrips = 10, 24
	}
	if s.SoakBatches > 0 {
		cfg.BatchesPerCell = s.SoakBatches
	}
	if s.SoakRoundtrips > 0 {
		cfg.BatchRoundtrips = s.SoakRoundtrips
	}
	cfg.EventBudget = env.EventBudget
	cfg.FS, cfg.CheckpointPath, cfg.StopAfterUnits = env.FS, env.Checkpoint, env.StopAfter
	run := soak.RunCtx
	if env.Resume {
		// A tampered or mismatched journal surfaces as a typed
		// *soak.JournalError.
		run = soak.ResumeCtx
	}
	res, err := run(ctx, cfg)
	if err != nil {
		return err
	}
	out.Text = func() (string, error) { return soak.Report(res), nil }
	if res.Stopped {
		out.Doc = nil
		return nil
	}
	// The manifest's quality block records the soak's own batch shape.
	out.Doc.Manifest.Quality = obs.QualityDoc{Warmup: cfg.Warmup, Measured: cfg.BatchRoundtrips, Samples: cfg.BatchesPerCell}
	out.Doc.Soak = soak.Doc(res)
	return nil
}

func runLint(ctx context.Context, s Spec, env Env, out *Output) error {
	kind := s.stackKind()
	cells, err := core.LintStudy(kind, core.Bipartite)
	if err != nil {
		return err
	}
	out.Doc.Verify = core.LintStudyDocOf(kind, core.Bipartite, cells)
	out.Text = func() (string, error) { return core.RenderLintStudy(kind, core.Bipartite, cells), nil }
	return nil
}

func runProfile(ctx context.Context, s Spec, env Env, out *Output) error {
	t, results, err := core.ProfileReportCtx(ctx, s.stackKind(), s.quality(), s.Top)
	if err != nil {
		return err
	}
	out.Doc.Runs = core.RunsDoc(results)
	out.Doc.Figures = []obs.Figure{{Name: "profile", Title: "Per-function mCPI attribution", Text: t}}
	out.Text = text(t)
	return nil
}

func runMachines(ctx context.Context, s Spec, env Env, out *Output) error {
	cfg := core.DefaultMachineStudy(s.stackKind(), s.Seed)
	cfg.Models, _ = machines.Select(s.Models)
	if s.Quality == "paper" {
		cfg.Quality = studyPaperQuality
	}
	if r := s.rates(); r != nil {
		cfg.Rates = r
	}
	cfg.EventBudget = env.EventBudget
	cells, err := core.MachineStudyCtx(ctx, cfg)
	if err != nil {
		return err
	}
	out.Doc.Machines = core.MachineStudyDocOf(cfg, cells)
	out.Text = func() (string, error) { return core.RenderMachineStudy(cfg, cells), nil }
	return nil
}

func runOptimize(ctx context.Context, s Spec, env Env, out *Output) error {
	cfg := optimize.Default(s.stackKind(), s.Seed)
	cfg.Models, _ = machines.Select(s.Models)
	cfg.Budget = s.Budget
	if s.Candidates > 0 {
		cfg.TopK = s.Candidates
	}
	if s.Quality == "paper" {
		cfg.Quality = studyPaperQuality
	}
	cfg.EventBudget = env.EventBudget
	results, err := optimize.RunCtx(ctx, cfg)
	if err != nil {
		return err
	}
	out.Doc.Optimize = optimize.DocOf(cfg, results)
	out.Text = func() (string, error) { return optimize.Render(cfg, results), nil }
	return nil
}

// The throughput and connection-cloning studies have fixed shapes.
const (
	throughputSegments, throughputPayload = 40, 1400
	multiconnRoundtrips                   = 32
)

func runThroughput(ctx context.Context, s Spec, env Env, out *Output) error {
	return out.setTable(core.ThroughputTable(throughputSegments, throughputPayload))
}

func runMultiConn(ctx context.Context, s Spec, env Env, out *Output) error {
	return out.setTable(core.MultiConnectionTable(multiconnRoundtrips))
}

func runSensitivity(ctx context.Context, s Spec, env Env, out *Output) error {
	return out.setTable(core.Sensitivity(s.stackKind(), s.Sweep, s.quality()))
}
