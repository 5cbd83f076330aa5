// Package optimize searches code placements automatically, closing the
// loop the paper left open: its layouts (outlining, cloning, the bipartite
// STD/ALL placement) were hand-derived from trace inspection, while this
// package treats the static layout cost engine (verify.Cost) as a cheap
// objective function and searches placements mechanically — greedy
// inter-procedural chain stitching for a seed order, then simulated
// annealing over function order and inter-function pad blocks.
//
// Safety is structural, not statistical. Each machine's search deep-clones
// the specialized reference image once into a working image, links its
// static data once (the data layout depends only on instructions, which a
// placement cannot change), and re-places that image for every candidate —
// every function, every time, so a rejected candidate leaves nothing stale
// behind. The working image shares no function or block with the
// reference, so before a candidate is ever scored it must pass the full
// static well-formedness pass (verify.Program) and the strict move-only
// equivalence proof (verify.CheckClone with no specialization licence —
// per-block instruction identity) against it. A candidate that fails either
// gate is counted and discarded, never scored; one deliberately tampered
// probe per machine, on a clone of its own, asserts the gate actually
// rejects (a search whose equivalence counter stays zero is a search whose
// proof was never exercised). Winners are rebuilt from fresh clones,
// proved again and confirmed by full simulation, reporting predicted
// versus measured replacement misses side by side.
//
// The search is deterministic: a hand-rolled splitmix64 stream seeded from
// (Config.Seed, machine index) drives every random choice, so a given
// (seed, budget, machine list) always reports the same candidates at any
// parallelism.
package optimize

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/machines"
	"repro/internal/protocols/features"
	"repro/internal/verify"
)

// DefaultBudget is the number of annealing steps per machine when
// Config.Budget is zero.
const DefaultBudget = 300

// DefaultTopK is how many searched placements are confirmed by full
// simulation per machine when Config.TopK is zero.
const DefaultTopK = 3

// maxPadBlocks bounds the inter-function padding the search may insert, in
// cache blocks. Padding exists to nudge a function across a set boundary;
// a handful of blocks reaches any set alignment the geometry offers.
const maxPadBlocks = 8

// Config parameterizes one layout search.
type Config struct {
	// Stack selects the protocol stack whose ALL-version material is
	// searched.
	Stack core.StackKind
	// Models lists the machine models to search a layout for, each on its
	// own cache geometry.
	Models []machines.Model
	// Seed drives the deterministic annealing stream.
	Seed uint64
	// Budget is the annealing steps per machine; 0 means DefaultBudget.
	Budget int
	// TopK is how many best candidates are confirmed by full simulation
	// per machine; 0 means DefaultTopK.
	TopK int
	// Quality shapes the confirmation runs; the zero value matches the
	// machine study's default (4 warmup, 12 measured, 1 sample).
	Quality core.Quality
}

// Default returns the standard search configuration for a stack: the full
// machine matrix, the default budget, and the machine study's confirmation
// quality.
func Default(kind core.StackKind, seed uint64) Config {
	return Config{
		Stack:   kind,
		Models:  machines.Matrix(),
		Seed:    seed,
		Budget:  DefaultBudget,
		TopK:    DefaultTopK,
		Quality: core.Quality{Warmup: 4, Measured: 12, Samples: 1},
	}
}

// Candidate is one searched placement that passed both proofs and was
// confirmed by full simulation.
type Candidate struct {
	// Rank orders the machine's confirmed candidates by measured
	// processing time, best first (1-based); the predicted cost guides
	// the search, the simulation ranks the report.
	Rank int
	// Order is the hot-run packing order over the path and library
	// functions.
	Order []string
	// PadBlocks is the padding inserted before each function of Order, in
	// cache blocks.
	PadBlocks []int
	// PredictedCost is the cost engine's frequency-weighted objective.
	PredictedCost float64
	// PredictedRepl is the cost engine's replacement-miss count for one
	// path traversal.
	PredictedRepl int
	// MeasuredRepl is the simulator's i-cache replacement-miss count over
	// the traced steady-state invocation of the confirmation run.
	MeasuredRepl uint64
	// MeasuredTpUS is the confirmation run's mean processing time.
	MeasuredTpUS float64
	// HotBytes is the size of the packed hot run, padding included.
	HotBytes uint64
}

// MachineResult is the search outcome for one machine model.
type MachineResult struct {
	// Model is the machine searched.
	Model machines.Model
	// HandTpUS and HandMeasuredRepl are the measured baseline: the hand
	// bipartite ALL layout under the same confirmation quality.
	HandTpUS         float64
	HandMeasuredRepl uint64
	// HandPredictedRepl and HandPredictedCost are the cost engine's
	// verdict on the hand layout, for the predicted-vs-measured report.
	HandPredictedRepl int
	HandPredictedCost float64
	// Examined counts candidate placements evaluated, including the
	// rejected ones and the deliberate tamper probe.
	Examined int
	// RejectedWellFormed counts candidates the placement or
	// well-formedness pass refused before scoring.
	RejectedWellFormed int
	// RejectedEquivalence counts candidates the move-only equivalence
	// proof refused before scoring (at least the tamper probe, always).
	RejectedEquivalence int
	// Candidates lists the confirmed placements, best predicted cost
	// first.
	Candidates []Candidate
}

// Run executes the layout search over every configured machine.
func Run(cfg Config) ([]MachineResult, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run with cooperative cancellation, consulted between machines
// and between confirmation samples.
func RunCtx(ctx context.Context, cfg Config) ([]MachineResult, error) {
	if cfg.Budget <= 0 {
		cfg.Budget = DefaultBudget
	}
	if cfg.TopK <= 0 {
		cfg.TopK = DefaultTopK
	}
	if cfg.Quality == (core.Quality{}) {
		cfg.Quality = core.Quality{Warmup: 4, Measured: 12, Samples: 1}
	}
	feat := features.Improved()
	ref, spec, weights, err := reference(cfg, feat)
	if err != nil {
		return nil, err
	}
	results := make([]MachineResult, 0, len(cfg.Models))
	for i, model := range cfg.Models {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := searchMachine(ctx, cfg, i, model, ref, spec, weights, feat)
		if err != nil {
			return nil, fmt.Errorf("optimize: %s: %w", model.Name, err)
		}
		results = append(results, *r)
	}
	return results, nil
}

// reference builds the specialized reference image of cfg.Stack's ALL
// material, its layout spec, and the cost weights: the micro-positioning
// usage hints, one per-function fetch frequency each.
func reference(cfg Config, feat features.Set) (*code.Program, layout.Spec, map[string]float64, error) {
	material, spec, usage, err := core.OptimizeMaterial(cfg.Stack, feat)
	if err != nil {
		return nil, layout.Spec{}, nil, fmt.Errorf("optimize: material: %w", err)
	}
	// One specialization up front, in place (the material is freshly built
	// and nothing else holds it): the reference image every working image
	// is cloned from and every candidate is proved move-only equivalent to.
	layout.Specialize(material, spec)
	weights := make(map[string]float64, len(usage))
	for n, c := range usage {
		weights[n] = float64(c)
	}
	return material, spec, weights, nil
}

// searcher bundles the per-machine search state.
type searcher struct {
	cfg   Config
	model machines.Model
	ref   *code.Program
	// work is the machine's working image: a linked deep clone of ref that
	// eval re-places for every candidate. It is nil once the annealing
	// loop ends, so the confirmation runs do not keep it alive.
	work     *code.Program
	spec     layout.Spec
	placer   *placer
	costSpec verify.CostSpec
	feat     features.Set

	examined, rejWF, rejEq int
}

// scored is one gated-and-scored candidate placement.
type scored struct {
	order    []string
	pads     []int
	rep      *verify.CostReport
	hotBytes uint64
	scalar   float64
	key      string
}

func searchMachine(ctx context.Context, cfg Config, machineIdx int, model machines.Model,
	ref *code.Program, spec layout.Spec, weights map[string]float64, feat features.Set) (*MachineResult, error) {
	s, err := newSearcher(cfg, model, ref, spec, weights, feat)
	if err != nil {
		return nil, err
	}
	best, err := s.anneal(machineIdx)
	if err != nil {
		return nil, err
	}

	res := &MachineResult{
		Model:               model,
		Examined:            s.examined,
		RejectedWellFormed:  s.rejWF,
		RejectedEquivalence: s.rejEq,
	}
	if err := s.handBaseline(ctx, res); err != nil {
		return nil, err
	}
	for rank, sc := range best {
		c, err := s.confirm(ctx, sc, rank+1)
		if err != nil {
			return nil, err
		}
		res.Candidates = append(res.Candidates, c)
	}
	// The cost engine guides the search; the simulator has the final word.
	// Rank the confirmed candidates by measured processing time so the
	// reported winner is the measured one, with predicted cost (then the
	// placement key) breaking ties deterministically.
	sort.Slice(res.Candidates, func(i, j int) bool {
		a, b := res.Candidates[i], res.Candidates[j]
		if a.MeasuredTpUS != b.MeasuredTpUS {
			return a.MeasuredTpUS < b.MeasuredTpUS
		}
		if a.PredictedCost != b.PredictedCost {
			return a.PredictedCost < b.PredictedCost
		}
		return candKey(a.Order, a.PadBlocks) < candKey(b.Order, b.PadBlocks)
	})
	for i := range res.Candidates {
		res.Candidates[i].Rank = i + 1
	}
	return res, nil
}

// newSearcher sets up one machine's search around a fresh working image.
func newSearcher(cfg Config, model machines.Model, ref *code.Program, spec layout.Spec,
	weights map[string]float64, feat features.Set) (*searcher, error) {
	s := &searcher{
		cfg:    cfg,
		model:  model,
		ref:    ref,
		spec:   spec,
		placer: newPlacer(ref, spec, model.Machine),
		feat:   feat,
		costSpec: verify.CostSpec{
			PathSpec:    verify.PathSpec{Path: spec.Path, Library: spec.Library},
			FuncWeights: weights,
		},
	}
	work, err := linkedClone(ref)
	if err != nil {
		return nil, err
	}
	s.work = work
	return s, nil
}

// anneal runs the machine's search proper — the greedy seed, the tamper
// probe and cfg.Budget annealing steps — and returns the top-K placements,
// best first. It releases the working image when done.
func (s *searcher) anneal(machineIdx int) ([]*scored, error) {
	order0 := greedyOrder(s.ref, s.spec, s.costSpec.FuncWeights)
	pads0 := make([]int, len(order0))
	cur, ok := s.eval(order0, pads0)
	if !ok {
		return nil, fmt.Errorf("greedy seed order rejected")
	}

	// Tamper probe: one candidate with an extra instruction smuggled into
	// the reference clone. The placement and well-formedness passes cannot
	// see it — only the equivalence proof can — so the gate must reject
	// it, and the RejectedEquivalence counter is provably exercised on
	// every machine.
	if err := s.tamperProbe(order0, pads0); err != nil {
		return nil, err
	}

	best := []*scored{cur}
	r := &rng{state: s.cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(machineIdx+1))}
	temp := cur.scalar/2 + 1
	for i := 0; i < s.cfg.Budget; i++ {
		order, pads := mutate(r, cur.order, cur.pads)
		cand, ok := s.eval(order, pads)
		if !ok {
			continue
		}
		if cand.scalar <= cur.scalar || r.float64() < math.Exp((cur.scalar-cand.scalar)/temp) {
			cur = cand
		}
		best = addBest(best, cand, s.cfg.TopK)
		temp *= 0.97
		if temp < 1e-3 {
			temp = 1e-3
		}
	}
	s.work = nil
	return best, nil
}

// linkedClone deep-copies ref and links its static data, ready for
// placer.place.
func linkedClone(ref *code.Program) (*code.Program, error) {
	p := ref.Clone()
	if err := p.LinkData(); err != nil {
		return nil, fmt.Errorf("link data: %w", err)
	}
	return p, nil
}

// eval re-places the working image as one candidate and runs the gate
// over it (verify.Candidate: the well-formedness pass, the move-only
// proof and the cost replay), scoring survivors. Rejections are counted
// and return ok=false.
func (s *searcher) eval(order []string, pads []int) (*scored, bool) {
	s.examined++
	p := s.work
	hotBytes, err := s.placer.place(p, order, pads)
	if err != nil {
		s.rejWF++
		return nil, false
	}
	rep, wf, eq := verify.Candidate(s.ref, p, s.costSpec, s.model.Machine)
	switch {
	case wf != nil:
		s.rejWF++
		return nil, false
	case eq != nil:
		s.rejEq++
		return nil, false
	}
	sc := &scored{
		order:    append([]string(nil), order...),
		pads:     append([]int(nil), pads...),
		rep:      rep,
		hotBytes: hotBytes,
		key:      candKey(order, pads),
	}
	// Ties in predicted cost break toward less padding (smaller image).
	sc.scalar = rep.Total + 1e-3*float64(sumInts(pads))
	return sc, true
}

// tamperProbe runs the gate over a deliberately corrupted reference clone
// and fails the whole search if the equivalence proof lets it through.
func (s *searcher) tamperProbe(order []string, pads []int) error {
	s.examined++
	probe, err := linkedClone(s.ref)
	if err != nil {
		return err
	}
	blk := probe.Func(order[0]).Blocks[0]
	blk.Instrs = append(blk.Instrs, code.Instr{Op: arch.OpNop})
	if _, err := s.placer.place(probe, order, pads); err != nil {
		s.rejWF++
		return fmt.Errorf("tamper probe rejected by placement, not the proof: %v", err)
	}
	_, wf, eq := verify.Candidate(s.ref, probe, s.costSpec, s.model.Machine)
	if wf != nil {
		s.rejWF++
		return fmt.Errorf("tamper probe rejected by well-formedness, not the proof: %v", wf)
	}
	if eq == nil {
		return fmt.Errorf("equivalence gate accepted a tampered candidate")
	}
	s.rejEq++
	return nil
}

// simConfig is the confirmation-run shape: the ALL experiment on the
// machine under search, optionally with a custom client image.
func (s *searcher) simConfig(custom *code.Program) core.Config {
	cfg := core.Config{
		Stack:    s.cfg.Stack,
		Version:  core.ALL,
		Feat:     s.feat,
		Strategy: core.Bipartite,
		Machine:  s.model.Machine,
		Custom:   custom,
	}
	return s.cfg.Quality.Apply(cfg)
}

// handBaseline fills the hand bipartite ALL layout's predicted and
// measured numbers for the machine.
func (s *searcher) handBaseline(ctx context.Context, res *MachineResult) error {
	hand, err := core.BuildProgram(s.cfg.Stack, core.ALL, s.feat, core.Bipartite, s.model.Machine)
	if err != nil {
		return fmt.Errorf("hand baseline build: %w", err)
	}
	rep, err := verify.Cost(hand, s.costSpec, s.model.Machine)
	if err != nil {
		return fmt.Errorf("hand baseline cost: %w", err)
	}
	res.HandPredictedRepl = rep.PredictedRepl
	res.HandPredictedCost = rep.Total
	sim, err := core.RunCtx(ctx, s.simConfig(nil))
	if err != nil {
		return fmt.Errorf("hand baseline run: %w", err)
	}
	res.HandTpUS = sim.TpMeanUS()
	res.HandMeasuredRepl = sim.First().ICache.ReplMisses
	return nil
}

// confirm rebuilds a winning candidate from scratch, re-runs both proofs
// (a reported candidate never rides on a stale check), and measures it by
// full simulation.
func (s *searcher) confirm(ctx context.Context, sc *scored, rank int) (Candidate, error) {
	p, err := linkedClone(s.ref)
	if err != nil {
		return Candidate{}, fmt.Errorf("confirm #%d: %w", rank, err)
	}
	if _, err := s.placer.place(p, sc.order, sc.pads); err != nil {
		return Candidate{}, fmt.Errorf("confirm #%d place: %w", rank, err)
	}
	_, wf, eq := verify.Candidate(s.ref, p, s.costSpec, s.model.Machine)
	if wf != nil {
		return Candidate{}, fmt.Errorf("confirm #%d well-formedness: %w", rank, wf)
	}
	if eq != nil {
		return Candidate{}, fmt.Errorf("confirm #%d equivalence: %w", rank, eq)
	}
	sim, err := core.RunCtx(ctx, s.simConfig(p))
	if err != nil {
		return Candidate{}, fmt.Errorf("confirm #%d run: %w", rank, err)
	}
	return Candidate{
		Rank:          rank,
		Order:         sc.order,
		PadBlocks:     sc.pads,
		PredictedCost: sc.rep.Total,
		PredictedRepl: sc.rep.PredictedRepl,
		MeasuredRepl:  sim.First().ICache.ReplMisses,
		MeasuredTpUS:  sim.TpMeanUS(),
		HotBytes:      sc.hotBytes,
	}, nil
}

// placer lays out candidates of one spec on one machine. What it
// derives from the spec and the reference image — which functions the
// spec names, the hot and cold block labels of each, and every label of
// every other function — it derives once per search: these are inputs to
// placement, not results of a check, and Place and the well-formedness
// pass still validate every candidate's coverage.
type placer struct {
	m arch.Machine
	// funcs holds the hot and cold block labels of each distinct
	// function the spec names, and slot its index there by name; labels
	// holds every block label of each other function.
	funcs  []specFunc
	slot   map[string]int
	labels map[string][]string
	// Per-call scratch: whether a slot is taken (by stamp), each order
	// position being placed, and the segments of the function being
	// placed, which Place copies.
	taken []uint32
	stamp uint32
	run   []placing
	segs  []code.Segment
}

// specFunc is a spec'd function's hot and cold block labels.
type specFunc struct{ hot, cold []string }

// placing is one order position during a place call: its slot in funcs,
// its function and block index, and its hot segment's address.
type placing struct {
	slot int
	f    *code.Function
	ix   *code.BlockIndex
	hot  uint64
}

func newPlacer(ref *code.Program, spec layout.Spec, m arch.Machine) *placer {
	pl := &placer{m: m, slot: map[string]int{}, labels: map[string][]string{}}
	for _, names := range [2][]string{spec.Path, spec.Library} {
		for _, n := range names {
			if _, dup := pl.slot[n]; dup {
				continue
			}
			pl.slot[n] = len(pl.funcs)
			var sf specFunc
			if f := ref.Func(n); f != nil {
				sf = specFunc{hot: code.HotLabels(f), cold: code.ColdLabels(f)}
			}
			pl.funcs = append(pl.funcs, sf)
		}
	}
	for _, f := range ref.Funcs() {
		if _, ok := pl.slot[f.Name]; !ok {
			pl.labels[f.Name] = code.AllLabels(f)
		}
	}
	pl.taken = make([]uint32, len(pl.funcs))
	return pl
}

// place lays out one candidate: the spec'd functions' hot blocks packed
// in the given order (with optional pad blocks before each) from the
// clone base, their cold blocks in one shared region after the hot run,
// and every other function sequentially after that — the same hot/cold
// shape the hand layouts use, parameterized by order and padding. It
// re-places every function of p and finishes the text only: p's data
// must already be linked (linkedClone). Returns the hot run's size in
// bytes, padding included.
func (pl *placer) place(p *code.Program, order []string, pads []int) (uint64, error) {
	if len(order) != len(pl.funcs) {
		return 0, fmt.Errorf("order names %d functions, spec has %d", len(order), len(pl.funcs))
	}
	// Refuse anything but a permutation of the spec before placing a
	// single function: an order that named one function twice and dropped
	// another would leave the dropped one where the previous candidate put
	// it.
	if pl.stamp++; pl.stamp == 0 {
		clear(pl.taken)
		pl.stamp = 1
	}
	run := pl.run[:0]
	for _, n := range order {
		j, ok := pl.slot[n]
		if !ok {
			return 0, fmt.Errorf("order names %q outside the spec", n)
		}
		if pl.taken[j] == pl.stamp {
			return 0, fmt.Errorf("order names %q twice", n)
		}
		pl.taken[j] = pl.stamp
		run = append(run, placing{slot: j})
	}
	// The scratch keeps no function of p alive once the call returns.
	pl.run = run
	defer clear(run)
	block := uint64(pl.m.BlockBytes)
	cur := uint64(layout.DefaultCloneBase)
	for i, n := range order {
		r, sf := &run[i], &pl.funcs[run[i].slot]
		if r.f = p.Func(n); r.f == nil {
			return 0, fmt.Errorf("unknown function %q", n)
		}
		if i < len(pads) {
			cur += uint64(pads[i]) * block
		}
		r.ix, r.hot = r.f.Index(), cur
		if len(sf.hot) > 0 {
			cur += r.ix.SegmentBytes(r.f, sf.hot)
		}
	}
	hotBytes := cur - uint64(layout.DefaultCloneBase)
	cold := cur
	for i := range run {
		r, sf := &run[i], &pl.funcs[run[i].slot]
		segs := pl.segs[:0]
		if len(sf.hot) > 0 {
			segs = append(segs, code.Segment{Addr: r.hot, Labels: sf.hot})
		}
		if len(sf.cold) > 0 {
			segs = append(segs, code.Segment{Addr: cold, Labels: sf.cold})
			cold += r.ix.SegmentBytes(r.f, sf.cold)
		}
		pl.segs = segs
		if err := p.Place(r.f.Name, segs); err != nil {
			return 0, err
		}
	}
	cursor := cold
	for k := 0; k < p.NumFuncs(); k++ {
		f := p.FuncAt(k)
		if _, ok := pl.slot[f.Name]; ok {
			continue
		}
		end, err := p.PlaceSequential(f.Name, cursor, pl.labels[f.Name])
		if err != nil {
			return 0, err
		}
		cursor = end
	}
	return hotBytes, p.FinishText()
}

// greedyOrder seeds the search with inter-procedural chain stitching: call
// edges between spec'd functions, weighted by the caller's fetch
// frequency, merged heaviest-first into chains whenever one chain's tail
// calls another chain's head (the classic function-ordering greedy).
// Remaining chains concatenate in spec order, path first.
func greedyOrder(ref *code.Program, spec layout.Spec, weights map[string]float64) []string {
	names := append(append([]string(nil), spec.Path...), spec.Library...)
	inSet := make(map[string]bool, len(names))
	for _, n := range names {
		inSet[n] = true
	}
	type edge struct {
		from, to string
		w        float64
	}
	wOf := func(n string) float64 {
		if w, ok := weights[n]; ok && w > 0 {
			return w
		}
		return 1
	}
	acc := map[[2]string]float64{}
	for _, n := range names {
		f := ref.Func(n)
		if f == nil {
			continue
		}
		for _, b := range f.Blocks {
			if b.Kind.Outlinable() {
				continue
			}
			for _, in := range b.Instrs {
				if c := in.Call(); c != "" && !in.CallLoad && c != n && inSet[c] {
					acc[[2]string{n, c}] += wOf(n)
				}
			}
		}
	}
	edges := make([]edge, 0, len(acc))
	for k, w := range acc {
		edges = append(edges, edge{from: k[0], to: k[1], w: w})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})

	chainOf := make(map[string]int, len(names))  // function -> chain id
	chains := make(map[int][]string, len(names)) // chain id -> members
	chainPos := make(map[int]int, len(names))    // chain id -> spec position of first member
	for i, n := range names {
		chainOf[n] = i
		chains[i] = []string{n}
		chainPos[i] = i
	}
	for _, e := range edges {
		a, b := chainOf[e.from], chainOf[e.to]
		if a == b {
			continue
		}
		ca, cb := chains[a], chains[b]
		// Merge only tail-to-head: the call site sits at the end of one
		// chain and the callee at the start of the other, so the merged
		// chain keeps both adjacencies.
		if ca[len(ca)-1] != e.from || cb[0] != e.to {
			continue
		}
		chains[a] = append(ca, cb...)
		for _, n := range cb {
			chainOf[n] = a
		}
		delete(chains, b)
		if chainPos[b] < chainPos[a] {
			chainPos[a] = chainPos[b]
		}
	}
	ids := make([]int, 0, len(chains))
	for id := range chains {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return chainPos[ids[i]] < chainPos[ids[j]] })
	order := make([]string, 0, len(names))
	for _, id := range ids {
		order = append(order, chains[id]...)
	}
	return order
}

// mutate proposes one neighbouring candidate: swap two functions, move one
// function elsewhere in the order, or bump one pad.
func mutate(r *rng, order []string, pads []int) ([]string, []int) {
	o := append([]string(nil), order...)
	p := append([]int(nil), pads...)
	n := len(o)
	switch r.next() % 3 {
	case 0:
		i, j := r.intn(n), r.intn(n)
		o[i], o[j] = o[j], o[i]
	case 1:
		i, j := r.intn(n), r.intn(n)
		f := o[i]
		o = append(o[:i], o[i+1:]...)
		o = append(o[:j], append([]string{f}, o[j:]...)...)
		if i < len(p) && j < len(p) {
			pv := p[i]
			p = append(p[:i], p[i+1:]...)
			p = append(p[:j], append([]int{pv}, p[j:]...)...)
		}
	default:
		i := r.intn(n)
		p[i] = (p[i] + 1 + r.intn(maxPadBlocks)) % (maxPadBlocks + 1)
	}
	return o, p
}

// addBest inserts a candidate into the top-k list, deduplicated by
// placement key, ordered by (scalar score, key) for determinism.
func addBest(best []*scored, c *scored, k int) []*scored {
	for _, b := range best {
		if b.key == c.key {
			return best
		}
	}
	best = append(best, c)
	sort.Slice(best, func(i, j int) bool {
		if best[i].scalar != best[j].scalar {
			return best[i].scalar < best[j].scalar
		}
		return best[i].key < best[j].key
	})
	if len(best) > k {
		best = best[:k]
	}
	return best
}

func candKey(order []string, pads []int) string {
	var sb strings.Builder
	for i, n := range order {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		if i < len(pads) && pads[i] > 0 {
			sb.WriteByte('+')
			sb.WriteString(strconv.Itoa(pads[i]))
		}
	}
	return sb.String()
}

func sumInts(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// rng is a splitmix64 stream: deterministic, seedable, and dependency-free
// (the deterministic packages ban math/rand by protovet policy).
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }
