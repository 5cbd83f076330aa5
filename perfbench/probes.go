package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/machines"
	"repro/internal/optimize"
	"repro/internal/protocols/features"
	"repro/internal/serve"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
	"repro/internal/storage"
	"repro/internal/verify"
	"repro/internal/xkernel"
)

// eventDepth is the number of pending timers the event-queue probe keeps
// beneath the event it schedules and runs: a run's queue holds a few
// link events and protocol timers at a time.
const eventDepth = 8

// runTraced is the traced variant of a run. It times every layer on its
// own, then measures the workload with spans on every other operation, and
// prints the spans and the reconciliation table.
func runTraced(name string, seed uint64, d time.Duration, sess session, w io.Writer) (*outcome, []metric, error) {
	p := &probes{seed: seed, v: map[string]float64{}}
	if err := p.run(name != "daemon"); err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	out, err := sess.measure(d, tr)
	if err != nil {
		return nil, nil, err
	}
	// The daemon's own traffic gives its serve.* split; the other
	// workloads took it from a short daemon probe.
	kept := out.metrics[:0]
	for _, m := range out.metrics {
		if strings.HasPrefix(m.name, "serve.") {
			p.add(m.name, m.value, m.unit, m.n)
		} else {
			kept = append(kept, m)
		}
	}
	out.metrics = kept
	on, off := tracedSplit(out)
	p.add("trace.overhead_frac", on/off-1, "frac", len(out.opMS))
	printSpans(w, tr.summary())
	p.reconcile(w, name, off)
	return out, p.layers, nil
}

// probes times each layer through its public functions and collects the
// per-layer metrics.
type probes struct {
	seed   uint64
	layers []metric
	v      map[string]float64 // values by name, for the reconciliation
	err    error
}

func (p *probes) add(name string, value float64, unit string, n int) {
	p.layers = append(p.layers, metric{name, value, unit, n})
	p.v[name] = value
}

// check keeps the first error a probe meets.
func (p *probes) check(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// perCall runs fn in reps batches of iters calls and returns the median
// batch's time per call in nanoseconds.
func perCall(reps, iters int, fn func()) float64 {
	fn()
	times := make([]float64, reps)
	for r := range times {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		times[r] = float64(time.Since(t0)) / float64(iters)
	}
	return median(times)
}

// timed is perCall for a call that can fail; it stops at the first error.
func (p *probes) timed(reps, iters int, fn func() error) float64 {
	var err error
	ns := perCall(reps, iters, func() {
		if err == nil {
			err = fn()
		}
	})
	p.check(err)
	return ns
}

// probeModels are the machines the instruction-level probes replay on: the
// paper's machine and one of each memory-system mechanism the matrix adds.
var probeModels = []string{"dec3000", "l1-8way", "victim8", "l2-256k", "modern"}

// stackName is the stack's name as the daemon's specs spell it.
func stackName(k core.StackKind) string {
	if k == core.StackRPC {
		return "rpc"
	}
	return "tcpip"
}

func model(name string) arch.Machine {
	m, err := machines.ByName(name)
	if err != nil {
		panic(err) // the names above are the matrix's own
	}
	return m.Machine
}

func (p *probes) run(miniDaemon bool) error {
	defer core.SetParallelism(runtime.NumCPU())
	p.simulate()
	p.code()
	p.core()
	p.verify()
	p.optimize()
	p.serve(miniDaemon)
	return p.err
}

// simulate times the simulator's own layers on a recorded trace: the
// client's steady-state path of one TCP/IP ALL roundtrip.
func (p *probes) simulate() {
	tr, err := core.RecordTrace(core.Quick.Apply(core.DefaultConfig(core.StackTCPIP, core.ALL)))
	if err != nil {
		p.check(err)
		return
	}
	entries := tr.Entries
	n := float64(len(entries))
	for _, name := range probeModels {
		h := mem.NewPooled(model(name))
		var now uint64
		pass := func() {
			for _, e := range entries {
				now += 1 + h.FetchInstr(now, e.Addr)
			}
		}
		// Misses over a cold pass and a warm one: compulsory plus
		// replacement, so the count is never 0, even on a cache the
		// path fits in.
		pass()
		pass()
		p.add("mem.imiss."+name, float64(h.IStats.Misses), "count", 1)
		p.add("mem.fetch_ns."+name, perCall(5, 200, pass)/n, "ns", 5)
		h.Release()
	}
	var data []cpu.Entry
	for _, e := range entries {
		if e.Op.AccessesMemory() {
			data = append(data, e)
		}
	}
	for _, name := range []string{"dec3000", "walloc"} {
		h := mem.NewPooled(model(name))
		var now uint64
		pass := func() {
			for _, e := range data {
				if e.Op == arch.OpLoad {
					now += 1 + h.Load(now, e.DataAddr)
				} else {
					now += 1 + h.Store(now, e.DataAddr)
				}
			}
		}
		p.add("mem.data_ns."+name, perCall(5, 500, pass)/float64(len(data)), "ns", 5)
		h.Release()
	}
	for _, name := range []string{"dec3000", "modern"} {
		m := model(name)
		p.add("mem.reset_us."+name, perCall(5, 200, func() { mem.NewPooled(m).Release() })/1e3, "us", 5)
	}
	for _, name := range []string{"dec3000", "modern"} {
		h := mem.NewPooled(model(name))
		c := cpu.New(h)
		p.add("cpu.step_ns."+name, perCall(5, 100, func() { c.Run(entries) })/n, "ns", 5)
		h.Release()
	}

	q := xkernel.NewEventQueue()
	noop := func() {}
	for i := 0; i < eventDepth; i++ {
		q.ScheduleAt(1<<62, noop)
	}
	p.add("xkernel.event_ns", perCall(5, 100000, func() {
		q.Schedule(1, noop)
		q.RunNext()
	}), "ns", 5)
}

// code times the engine, condition lookup and the clone-place-link step
// the layout search repeats per candidate.
func (p *probes) code() {
	dec := arch.DEC3000_600()
	prog, err := core.BuildProgram(core.StackTCPIP, core.ALL, features.Improved(), core.Bipartite, dec)
	if err != nil {
		p.check(err)
		return
	}
	h := mem.NewPooled(dec)
	defer h.Release()
	c := cpu.New(h)
	e := code.NewEngine(c, prog)
	env := code.NewBinding(nil)
	path := core.LintSpec(core.StackTCPIP, core.ALL).Path
	pass := func() error {
		for _, fn := range path {
			if err := e.Run(fn, env); err != nil {
				return err
			}
		}
		return nil
	}
	// The engine's own instruction stream, replayed through a CPU on a
	// second hierarchy, costs what cpu and mem cost inside a pass; batches
	// of passes and of replays alternate, so the two see the same host
	// conditions, and their difference is the engine's self time.
	var stream []cpu.Entry
	e.Observer = func(en cpu.Entry) { stream = append(stream, en) }
	p.check(pass())
	e.Observer = nil
	rh := mem.NewPooled(dec)
	defer rh.Release()
	rc := cpu.New(rh)
	rc.Run(stream)
	const iters = 50
	self := make([]float64, 9)
	for r := range self {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			p.check(pass())
		}
		t1 := time.Now()
		for i := 0; i < iters; i++ {
			rc.Run(stream)
		}
		engine, replay := t1.Sub(t0), time.Since(t1)
		self[r] = float64(engine-replay) / iters / float64(len(stream))
	}
	p.add("code.engine_ns_per_instr", median(self), "ns", len(self))

	b := code.NewBinding(nil)
	var names []string
	for i := 0; i < 16; i++ {
		names = append(names, fmt.Sprintf("cond%d", i))
		b.Set(names[i], i%2 == 0)
	}
	i := 0
	p.add("code.cond_ns", perCall(5, 200000, func() {
		b.Cond(names[i&15])
		i++
	}), "ns", 5)

	cand, err := newCandidates()
	if err != nil {
		p.check(err)
		return
	}
	p.add("code.clone_link_us", p.timed(5, 20, func() error {
		_, err := cand.place()
		return err
	})/1e3, "us", 5)
}

// candidates is the layout search's raw material: a specialized reference
// image and the functions whose order a candidate sets.
type candidates struct {
	ref   *code.Program
	spec  layout.Spec
	costs verify.CostSpec
}

func newCandidates() (*candidates, error) {
	material, spec, usage, err := core.OptimizeMaterial(core.StackTCPIP, features.Improved())
	if err != nil {
		return nil, err
	}
	ref := material.Clone()
	layout.Specialize(ref, spec)
	weights := map[string]float64{}
	for n, c := range usage {
		weights[n] = float64(c)
	}
	return &candidates{ref: ref, spec: spec, costs: verify.CostSpec{
		PathSpec:    verify.PathSpec{Path: spec.Path, Library: spec.Library},
		FuncWeights: weights,
	}}, nil
}

// place clones the reference and lays it out the way the search lays out
// an unpadded candidate: the spec'd functions' hot blocks packed from the
// clone base in spec order, their cold blocks after them, every other
// function sequentially after that.
func (c *candidates) place() (*code.Program, error) {
	p := c.ref.Clone()
	names := append(append([]string(nil), c.spec.Path...), c.spec.Library...)
	inSpec := map[string]bool{}
	cur := uint64(layout.DefaultCloneBase)
	hot := map[string]code.Segment{}
	for _, n := range names {
		inSpec[n] = true
		f := p.Func(n)
		if l := code.HotLabels(f); len(l) > 0 {
			hot[n] = code.Segment{Addr: cur, Labels: l}
			cur += code.SegmentBytes(f, l)
		}
	}
	for _, n := range names {
		f := p.Func(n)
		var segs []code.Segment
		if s, ok := hot[n]; ok {
			segs = append(segs, s)
		}
		if l := code.ColdLabels(f); len(l) > 0 {
			segs = append(segs, code.Segment{Addr: cur, Labels: l})
			cur += code.SegmentBytes(f, l)
		}
		if err := p.Place(n, segs); err != nil {
			return nil, err
		}
	}
	for _, n := range p.Names() {
		if inSpec[n] {
			continue
		}
		end, err := p.PlaceSequential(n, cur, nil)
		if err != nil {
			return nil, err
		}
		cur = end
	}
	return p, p.FinishLayout()
}

// core times program builds, single samples and whole sweeps, and counts
// the simulated instructions and events behind them.
func (p *probes) core() {
	dec := arch.DEC3000_600()
	feat := features.Improved()
	for _, kind := range []core.StackKind{core.StackTCPIP, core.StackRPC} {
		p.add("core.build_cold_ms."+stackName(kind), p.timed(3, 1, func() error {
			_, err := core.BuildProgramUncached(kind, core.ALL, feat, core.Bipartite, dec)
			return err
		})/1e6, "ms", 3)
	}
	p.add("core.build_cached_ns", p.timed(5, 10000, func() error {
		_, err := core.BuildProgram(core.StackTCPIP, core.ALL, feat, core.Bipartite, dec)
		return err
	}), "ns", 5)

	core.SetParallelism(1)
	var instrsTotal, msTotal float64
	for _, c := range []struct {
		kind core.StackKind
		v    core.Version
	}{{core.StackTCPIP, core.STD}, {core.StackTCPIP, core.ALL}, {core.StackRPC, core.ALL}} {
		cfg := core.Quick.Apply(core.DefaultConfig(c.kind, c.v))
		cfg.Samples = 1
		var res *core.Result
		ms := p.timed(9, 1, func() (err error) {
			res, err = core.Run(cfg)
			return err
		}) / 1e6
		instrs, _, te, err := replicaSample(cfg, 0)
		p.check(err)
		if err == nil && te != res.Samples[0].TeUS {
			p.check(fmt.Errorf("replica of %v/%v: Te %v, core %v", c.kind, c.v, te, res.Samples[0].TeUS))
		}
		name := stackName(c.kind) + "." + c.v.String()
		p.add("core.sample_ms."+name, ms, "ms", 9)
		p.v["core.sample_instrs."+name] = float64(instrs)
		instrsTotal += float64(instrs)
		msTotal += ms
	}
	p.add("core.sample_residual_frac", 1-instrsTotal*p.v["cpu.step_ns.dec3000"]/1e6/msTotal, "frac", 27)

	// Every sample of the Table-4 sweep, replayed for its counts.
	var sweepInstrs, sweepEvents float64
	for _, kind := range []core.StackKind{core.StackTCPIP, core.StackRPC} {
		for _, v := range core.Versions() {
			cfg := core.Quick.Apply(core.DefaultConfig(kind, v))
			for i := 0; i < cfg.Samples; i++ {
				instrs, events, _, err := replicaSample(cfg, i)
				p.check(err)
				sweepInstrs += float64(instrs)
				sweepEvents += float64(events)
			}
		}
	}
	p.add("core.sweep_instrs", sweepInstrs, "count", 1)
	p.add("core.sweep_events", sweepEvents, "count", 1)

	var serial, wide []float64
	nproc := runtime.NumCPU()
	for r := 0; r < 3; r++ {
		for _, width := range []int{1, nproc} {
			core.SetParallelism(width)
			t0 := time.Now()
			tcp, rpc, err := table4Sweep(nil, -1, core.Quick)
			p.check(err)
			ms := float64(time.Since(t0)) / 1e6
			if width == 1 {
				serial = append(serial, ms)
			} else {
				wide = append(wide, ms)
			}
			if r == 0 && width == 1 && err == nil {
				p.marshal(tcp, rpc)
			}
		}
	}
	p.add("core.sweep_serial_ms", median(serial), "ms", len(serial))
	p.add("core.pool_speedup", median(serial)/median(wide), "x", len(wide))

	core.SetParallelism(1)
	// The shape of the repository's BenchmarkRunParallel, whose width-1
	// figure EXPERIMENTS.md records as the overhauled hot path's baseline.
	shape := core.Quality{Warmup: 4, Measured: 8, Samples: 4}
	p.add("core.runparallel_sweep_ms", p.timed(3, 1, func() error {
		_, _, err := table4Sweep(nil, -1, shape)
		return err
	})/1e6, "ms", 3)
	core.SetParallelism(nproc)
}

// marshal times rendering the Table-4 document.
func (p *probes) marshal(tcp, rpc map[core.Version]*core.Result) {
	doc := table4Doc(tcp, rpc)
	var b []byte
	p.add("obs.marshal_us.table4", p.timed(5, 3, func() (err error) {
		b, err = doc.Marshal()
		return err
	})/1e3, "us", 5)
	st, err := serve.OpenStoreFS(storage.NewMemFS(), "store", 0)
	if err != nil {
		p.check(err)
		return
	}
	spec := serve.Spec{Kind: "table", Table: 4}
	fp := spec.Fingerprint(daemonDescribe)
	p.add("serve.store_put_us", p.timed(5, 20, func() error { return st.Put(fp, b) })/1e3, "us", 5)
	p.add("serve.store_get_us", p.timed(5, 20, func() error {
		_, err := st.Get(fp)
		return err
	})/1e3, "us", 5)
	p.add("serve.fingerprint_us", p.timed(5, 2000, func() error {
		s := spec.Normalized()
		err := s.Validate()
		s.Fingerprint(daemonDescribe)
		return err
	})/1e3, "us", 5)
}

// verify times the static checks the layout search runs on each candidate,
// and the lint the machine study runs per model.
func (p *probes) verify() {
	cand, err := newCandidates()
	if err != nil {
		p.check(err)
		return
	}
	dec := arch.DEC3000_600()
	prog, err := cand.place()
	if err != nil {
		p.check(err)
		return
	}
	p.add("verify.wellformed_us", p.timed(5, 20, func() error { return verify.Program(prog, dec) })/1e3, "us", 5)
	p.add("verify.equiv_us", p.timed(5, 20, func() error { return verify.CheckClone(cand.ref, prog, nil) })/1e3, "us", 5)
	for _, name := range []string{"dec3000", "modern"} {
		m := model(name)
		p.add("verify.cost_us."+name, p.timed(5, 20, func() error {
			_, err := verify.Cost(prog, cand.costs, m)
			return err
		})/1e3, "us", 5)
	}
	hand, err := core.BuildProgram(core.StackTCPIP, core.ALL, features.Improved(), core.Bipartite, dec)
	if err != nil {
		p.check(err)
		return
	}
	spec := core.LintSpec(core.StackTCPIP, core.ALL)
	p.add("verify.lint_us", p.timed(5, 20, func() error {
		_, err := verify.Lint(hand, spec, dec)
		return err
	})/1e3, "us", 5)
}

// optimize runs the layout search at two budgets; the slope is the cost of
// one annealing step, the intercept the fixed cost of a search. The small
// budget is a few steps, enough to fill the top-K, so the intercept is
// nearly a measured time rather than a long extrapolation that host noise
// can push below zero.
func (p *probes) optimize() {
	const small = 10
	cfg, err := optimizeConfig(p.seed)
	if err != nil {
		p.check(err)
		return
	}
	run := func(budget, reps int) (ms float64, res []optimize.MachineResult) {
		c := cfg
		c.Budget = budget
		ms = p.timed(reps, 1, func() (err error) {
			res, err = optimize.Run(c)
			return err
		}) / 1e6
		return ms, res
	}
	tBig, big := run(cfg.Budget, 3)
	tSmall, sml := run(small, 5)
	if p.err != nil {
		return
	}
	exBig, exSmall := float64(big[0].Examined), float64(sml[0].Examined)
	step := (tBig - tSmall) / (exBig - exSmall)
	p.add("optimize.step_us", step*1e3, "us", 8)
	p.add("optimize.fixed_ms", tBig-exBig*step, "ms", 8)
	p.add("optimize.examined", exBig, "count", 1)
	p.add("optimize.rejected_eq", float64(big[0].RejectedEquivalence), "count", 1)
	p.add("optimize.hand_tp_us", big[0].HandTpUS, "us", 1)
	p.add("optimize.rank1_tp_us", big[0].Candidates[0].MeasuredTpUS, "us", 1)
}

// serve gives workloads other than the daemon its serve.* split from a
// short daemon run.
func (p *probes) serve(miniDaemon bool) {
	if !miniDaemon {
		return
	}
	d, err := startDaemon(p.seed)
	if err != nil {
		p.check(err)
		return
	}
	defer d.close()
	refs, err := loadReferences()
	if err == nil {
		_, err = d.fill(refs)
	}
	if err != nil {
		p.check(err)
		return
	}
	o, err := d.measure(2*time.Second, nil)
	if err == nil && o.failed > 0 {
		err = fmt.Errorf("daemon probe: %s", o.failures[0])
	}
	if err != nil {
		p.check(err)
		return
	}
	for _, m := range o.metrics {
		if strings.HasPrefix(m.name, "serve.") {
			p.add(m.name, m.value, m.unit, m.n)
		}
	}
}
