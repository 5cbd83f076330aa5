package serve

import (
	"context"
	"strings"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/optimize"
)

// An entry is one kind of study: the parameters it reads, how it computes
// its document and how it renders that document as text.
type entry struct {
	kind string
	// params lists, in the manifest command's order, the parameters the
	// kind reads and the literal flag that selects it ("-faults"). Every
	// kind also carries stack and quality; a kind that does not list one
	// of them canonicalizes a valid value to the default. A trailing "?"
	// keeps a parameter off the command while it holds its default.
	params []string
	// run computes the study into doc, which already holds the manifest.
	// A kind whose measurement shape is not the quality preset records the
	// shape it ran in the manifest's quality block. run and lint still
	// carry the preset: perfbench/reference.txt pins the bytes of both
	// documents.
	run func(ctx context.Context, s Spec, doc *obs.Document) error
	// text renders the report from the document and its manifest alone.
	text func(*obs.Document) string
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
	{kind: "run", params: []string{"stack", "version", "samples", "classifier?", "quality?"}, run: runOne, text: core.RenderRun},
	{kind: "table", params: []string{"table", "quality"}, run: runTable, text: core.RenderTables},
	{kind: "figure", params: []string{"figure"}, run: runFigure, text: core.RenderFigure},
	{kind: "all", params: []string{"quality"}, run: runAll, text: core.RenderReport},
	{kind: "faults", params: []string{"-faults", "stack", "seed", "rates?", "quality"}, run: runFaults, text: core.RenderFaultStudy},
	{kind: "lint", params: []string{"-lint", "stack"}, run: runLint, text: core.RenderLintStudy},
	{kind: "profile", params: []string{"-profile", "stack", "top", "quality"}, run: runProfile, text: core.RenderFigure},
	{kind: "machines", params: []string{"models", "stack", "seed", "rates?", "quality"}, run: runMachines, text: core.RenderMachineStudy},
	{kind: "optimize", params: []string{"models", "stack", "seed", "budget", "candidates", "quality"}, run: runOptimize, text: optimize.Render},
	{kind: "throughput", params: []string{"-throughput"}, run: runThroughput, text: core.RenderTables},
	{kind: "multiconn", params: []string{"-multiconn"}, run: runMultiConn, text: core.RenderTables},
	{kind: "sensitivity", params: []string{"sweep", "stack", "quality"}, run: runSensitivity, text: core.RenderTables},
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

// Run computes the document of the study a spec describes, its manifest
// complete but for the checkout identity (git_describe), which the shell
// stamps. The spec is normalized and validated first, so an invalid one
// fails with a *SpecError before any work starts.
func Run(ctx context.Context, spec Spec) (*obs.Document, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	doc := &obs.Document{Manifest: core.NewManifest(spec.command(), spec.Seed, spec.quality())}
	if err := lookup(spec.Kind).run(ctx, spec, doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// Text renders the report of a registered kind from its document: the
// text the CLI prints.
func Text(kind string, doc *obs.Document) string {
	return lookup(kind).text(doc)
}

// Per-cell qualities the studies use in place of the presets.
var (
	// studyPaperQuality is the paper quality of the machine study and the
	// layout search's confirmation runs.
	studyPaperQuality = core.Quality{Warmup: 8, Measured: 24, Samples: 3}
	// faultQuickQuality is the fault study's quick quality.
	faultQuickQuality = core.Quality{Warmup: 3, Measured: 12, Samples: 1}
)

// shape records in the manifest the measurement shape a study ran.
func shape(doc *obs.Document, q core.Quality) {
	doc.Manifest.Quality = q.Doc()
}

// rpcShape records in doc's manifest the sample count q.Apply gave the
// document's RPC runs, when the cap made it differ from the quality's.
func rpcShape(doc *obs.Document, q core.Quality) {
	if n := q.RPCSamples(); n != q.Samples {
		doc.Manifest.Quality.RPCSamples = n
	}
}

// The entries' run functions receive specs Run has validated, so
// re-parsing a validated field cannot fail.

func runOne(ctx context.Context, s Spec, doc *obs.Document) error {
	ver, _ := s.version()
	q := s.quality()
	cfg := core.DefaultConfig(s.stackKind(), ver)
	cfg.Warmup, cfg.Measured, cfg.Samples = q.Warmup, q.Measured, s.Samples
	cfg.UseClassifier = s.Classifier
	cfg.Profile = true // observation-only: the text is identical unprofiled
	res, err := core.RunCtx(ctx, cfg)
	if err != nil {
		return err
	}
	doc.Runs = []obs.Run{core.RunDoc(res)}
	return nil
}

// sweep is one stack's version sweep, the input of tables 4..9.
type sweep = map[core.Version]*core.Result

// sweepTables computes tables 4/5 (one exhibit), 6, 7, 8 and 9 from the
// version sweeps, in report order.
var sweepTables = []func(tcpip, rpc sweep) []obs.Table{
	core.Table45Data,
	func(tcpip, rpc sweep) []obs.Table { return []obs.Table{core.Table6Data(tcpip, rpc)} },
	func(tcpip, rpc sweep) []obs.Table { return []obs.Table{core.Table7Data(tcpip, rpc)} },
	func(tcpip, rpc sweep) []obs.Table { return []obs.Table{core.Table8Data(tcpip, rpc)} },
	func(tcpip, rpc sweep) []obs.Table { return []obs.Table{core.Table9Data(tcpip, rpc)} },
}

// measuredTables computes tables 1, 2 and 3, each from its own runs.
var measuredTables = []func(core.Quality) (obs.Table, error){core.Table1Data, core.Table2Data, core.Table3Data}

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
	rpcShape(doc, q)
	return tcpip, rpc, nil
}

func runTable(ctx context.Context, s Spec, doc *obs.Document) error {
	q := s.quality()
	if s.Table <= 3 {
		t, err := measuredTables[s.Table-1](q)
		doc.Tables = []obs.Table{t}
		return err
	}
	tcpip, rpc, err := sweeps(ctx, q, doc)
	if err != nil {
		return err
	}
	doc.Tables = sweepTables[max(s.Table-5, 0)](tcpip, rpc)
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

// figure renders Figure n (1-based) into the document.
func figure(doc *obs.Document, n int) error {
	f := figures[n-1]
	t, err := f.render()
	doc.Figures = append(doc.Figures, obs.Figure{Name: f.name, Title: f.title, Text: t})
	return err
}

func runFigure(ctx context.Context, s Spec, doc *obs.Document) error {
	shape(doc, core.Quality{})
	return figure(doc, s.Table)
}

// runAll is the full evaluation report: both figures, tables 1..3 and the
// version sweeps behind tables 4..9.
func runAll(ctx context.Context, s Spec, doc *obs.Document) error {
	q := s.quality()
	for _, t := range measuredTables {
		data, err := t(q)
		if err != nil {
			return err
		}
		doc.Tables = append(doc.Tables, data)
	}
	tcpip, rpc, err := sweeps(ctx, q, doc)
	if err != nil {
		return err
	}
	for _, t := range sweepTables {
		doc.Tables = append(doc.Tables, t(tcpip, rpc)...)
	}
	for n := 1; n <= len(figures); n++ {
		if err := figure(doc, n); err != nil {
			return err
		}
	}
	return nil
}

func runFaults(ctx context.Context, s Spec, doc *obs.Document) error {
	cfg := core.DefaultFaultStudy(s.stackKind(), s.Seed)
	if s.Quality != "paper" {
		cfg.Quality = faultQuickQuality
	}
	if r := s.rates(); r != nil {
		cfg.Rates = r
	}
	cells, err := core.FaultStudyCtx(ctx, cfg)
	if err != nil {
		return err
	}
	shape(doc, cfg.Quality)
	doc.FaultStudy = core.FaultStudyDocOf(cfg, cells)
	return nil
}

func runLint(ctx context.Context, s Spec, doc *obs.Document) error {
	kind := s.stackKind()
	cells, err := core.LintStudy(kind)
	if err != nil {
		return err
	}
	doc.Verify = core.LintStudyDocOf(kind, cells)
	return nil
}

func runProfile(ctx context.Context, s Spec, doc *obs.Document) error {
	t, results, err := core.ProfileReportCtx(ctx, s.stackKind(), s.quality(), s.Top)
	if err != nil {
		return err
	}
	doc.Runs = core.RunsDoc(results)
	if s.stackKind() == core.StackRPC {
		rpcShape(doc, s.quality())
	}
	doc.Figures = []obs.Figure{{Name: "profile", Title: "Per-function mCPI attribution", Text: t}}
	return nil
}

func runMachines(ctx context.Context, s Spec, doc *obs.Document) error {
	cfg := core.DefaultMachineStudy(s.stackKind(), s.Seed)
	cfg.Models, _ = machines.Select(s.Models)
	if s.Quality == "paper" {
		cfg.Quality = studyPaperQuality
	}
	if r := s.rates(); r != nil {
		cfg.Rates = r
	}
	cells, err := core.MachineStudyCtx(ctx, cfg)
	if err != nil {
		return err
	}
	shape(doc, cfg.Quality)
	doc.Machines = core.MachineStudyDocOf(cfg, cells)
	return nil
}

func runOptimize(ctx context.Context, s Spec, doc *obs.Document) error {
	cfg := optimize.Default(s.stackKind(), s.Seed)
	cfg.Models, _ = machines.Select(s.Models)
	cfg.Budget = s.Budget
	if s.Candidates > 0 {
		cfg.TopK = s.Candidates
	}
	if s.Quality == "paper" {
		cfg.Quality = studyPaperQuality
	}
	results, err := optimize.RunCtx(ctx, cfg)
	if err != nil {
		return err
	}
	shape(doc, cfg.Quality)
	doc.Optimize = optimize.DocOf(cfg, results)
	return nil
}

// The throughput and connection-cloning studies have fixed shapes.
const (
	throughputSegments, throughputPayload = 40, 1400
	multiconnRoundtrips                   = 32
)

func runThroughput(ctx context.Context, s Spec, doc *obs.Document) error {
	// One transfer per version, every segment timed.
	shape(doc, core.Quality{Measured: throughputSegments, Samples: 1})
	t, err := core.ThroughputTable(throughputSegments, throughputPayload)
	doc.Tables = []obs.Table{t}
	return err
}

func runMultiConn(ctx context.Context, s Spec, doc *obs.Document) error {
	// One run per cell; Te averages the second half of the roundtrips.
	shape(doc, core.Quality{Warmup: multiconnRoundtrips / 2, Measured: multiconnRoundtrips / 2, Samples: 1})
	t, err := core.MultiConnectionTable(multiconnRoundtrips)
	doc.Tables = []obs.Table{t}
	return err
}

func runSensitivity(ctx context.Context, s Spec, doc *obs.Document) error {
	// One sample per (machine, version) cell of the machine study.
	q := s.quality()
	shape(doc, core.Quality{Warmup: q.Warmup, Measured: q.Measured, Samples: 1})
	t, err := core.Sensitivity(ctx, s.stackKind(), s.Sweep, q)
	doc.Tables = []obs.Table{t}
	return err
}
