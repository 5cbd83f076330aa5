package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime/debug"
	"sync"

	"repro/internal/arch"
	"repro/internal/classifier"
	"repro/internal/code"
	"repro/internal/faults"
	"repro/internal/lance"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocols/features"
	"repro/internal/protocols/rpc"
	"repro/internal/protocols/tcpip"
	"repro/internal/protocols/wire"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
	"repro/internal/xkernel"
)

// Config describes one experiment.
type Config struct {
	Stack   StackKind
	Version Version
	Feat    features.Set

	// Strategy selects the cloned-code layout for CLO/ALL.
	Strategy CloneStrategy

	// Warmup roundtrips run before measurement; Measured roundtrips are
	// measured; Samples independent runs (with perturbed memory
	// allocation origins) provide the mean and standard deviation.
	Warmup   int
	Measured int
	Samples  int

	// UseClassifier charges real packet-classification cost on the
	// receive path of PIN/ALL (the paper's default measurements assume a
	// zero-overhead classifier).
	UseClassifier bool

	// Faults, when non-nil and active, injects link faults per the plan.
	// Each sample derives its own seed from (plan seed, sample index), so
	// parallel runs remain byte-identical to serial ones.
	Faults *faults.Plan

	// Profile, when set, attaches a per-function attribution collector to
	// the client over the traced path invocation, filling Sample.Profile.
	// Profiling is observation-only: every Sample metric is byte-identical
	// with the flag on or off (a tested invariant).
	Profile bool

	// EventBudget bounds the events one sample may execute before the
	// watchdog declares it runaway; 0 selects DefaultEventBudget.
	EventBudget int

	// Machine selects the simulated hardware. The zero value means the
	// paper's DEC 3000/600 (the historical behavior); the machine-matrix
	// study sets it from internal/machines. Because Machine participates
	// in the program-cache key and the serve fingerprint, two configs
	// differing only here never share compiled programs or memoized
	// results.
	Machine arch.Machine

	// Custom, when non-nil, is a pre-built program image the hosts run in
	// place of the BuildProgram output for (Stack, Version, Feat,
	// Strategy, Machine) — the seam the layout optimizer uses to confirm
	// a searched placement by full simulation. The image must already be
	// placed, linked and verified; it bypasses the program cache. The RPC
	// server keeps its fixed ALL reference image even under Custom, just
	// as it ignores Version.
	Custom *code.Program
}

// machine resolves Config.Machine, mapping the zero value to the paper's
// DEC 3000/600 so existing call sites and serialized configs keep their
// meaning.
func (c Config) machine() arch.Machine {
	if c.Machine == (arch.Machine{}) {
		return arch.DEC3000_600()
	}
	return c.Machine
}

// DefaultEventBudget is the per-sample watchdog limit (the historical
// hard-coded safety valve, now configurable).
const DefaultEventBudget = 1_000_000

func (c Config) eventBudget() int {
	if c.EventBudget > 0 {
		return c.EventBudget
	}
	return DefaultEventBudget
}

// faultSeed reports the fault-plan seed sample i runs under (0 when no
// plan is active) — the value a SimPanicError surfaces for reproduction.
func (c Config) faultSeed(i int) uint64 {
	if c.Faults == nil || !c.Faults.Active() {
		return 0
	}
	return c.Faults.ForSample(i).Seed
}

// DefaultConfig returns the paper's measurement shape for the given stack
// and version: ten samples for TCP/IP, five for RPC.
func DefaultConfig(kind StackKind, v Version) Config {
	samples := 10
	if kind == StackRPC {
		samples = 5
	}
	return Config{
		Stack:    kind,
		Version:  v,
		Feat:     features.Improved(),
		Warmup:   8,
		Measured: 16,
		Samples:  samples,
	}
}

// Sample is the measurement of one run.
type Sample struct {
	// TeUS is the steady-state end-to-end roundtrip latency.
	TeUS float64
	// TpUS is the client's traced processing time per roundtrip.
	TpUS float64
	// TraceLen is the client's dynamic instruction count per roundtrip.
	TraceLen float64
	// CPI, ICPI and MCPI characterize the traced client code.
	CPI, ICPI, MCPI float64
	// ICache, DCache and BCache are the per-roundtrip client cache
	// statistics (Table 6).
	ICache, DCache, BCache mem.Stats
	// L2Cache is the mid-level cache statistics on machines that have one
	// (Machine.L2Bytes > 0); zero otherwise.
	L2Cache mem.Stats
	// VictimHits counts i-cache misses satisfied by the victim buffer on
	// machines that have one; zero otherwise.
	VictimHits uint64
	// UnusedICacheFrac is the fraction of fetched i-cache block slots
	// never executed (Table 9).
	UnusedICacheFrac float64
	// ClassifierMisses counts fast-path classification failures.
	ClassifierMisses int
	// Faults carries the run's fault-injection and recovery accounting
	// (zero when no fault plan is active).
	Faults FaultStats
	// Phases splits the mean measured roundtrip into the §4.3 phases.
	Phases obs.PhaseSplit
	// Profile is the per-function attribution of the traced invocation;
	// nil unless Config.Profile was set.
	Profile *obs.Profile
}

// FaultStats is one run's fault accounting: what the injector did, how the
// link accounted for every frame, and what the protocols spent recovering.
type FaultStats struct {
	// Injected tallies the injector's actions (zero without a plan).
	Injected faults.Counters
	// Link totals; LinkDelivered + LinkDropped == LinkFrames +
	// LinkDuplicated always holds (checked after every run).
	LinkFrames, LinkDelivered, LinkDropped, LinkDuplicated int
	// Recovery work: retransmissions (TCP, or CHAN/BLAST resends for the
	// RPC stack), connections aborted (or BLAST reassemblies abandoned),
	// and checksum rejections observed by the protocols.
	Retransmits, Aborts, ChecksumErrs int
	// FastRetransmits counts TCP retransmissions triggered by duplicate
	// ACKs rather than a timer expiry (always 0 for the RPC stack).
	FastRetransmits int
}

// Add accumulates another run's stats.
func (f *FaultStats) Add(o FaultStats) {
	f.Injected.Add(o.Injected)
	f.LinkFrames += o.LinkFrames
	f.LinkDelivered += o.LinkDelivered
	f.LinkDropped += o.LinkDropped
	f.LinkDuplicated += o.LinkDuplicated
	f.Retransmits += o.Retransmits
	f.Aborts += o.Aborts
	f.ChecksumErrs += o.ChecksumErrs
	f.FastRetransmits += o.FastRetransmits
}

// Result aggregates an experiment's samples.
type Result struct {
	Config  Config
	Samples []Sample

	// TeMeanUS and TeStdUS summarize end-to-end latency across samples.
	TeMeanUS, TeStdUS float64

	// StaticPathInstrs is the static size of the latency-critical path
	// (mainline only, after whatever outlining the version applies).
	StaticPathInstrs int
}

// First returns the first sample (detailed statistics are reported from it,
// as the paper reports one representative trace). A result with no samples
// yields the zero Sample.
func (r *Result) First() Sample {
	if len(r.Samples) == 0 {
		return Sample{}
	}
	return r.Samples[0]
}

// TpMeanUS averages processing time over samples.
func (r *Result) TpMeanUS() float64 {
	var s float64
	for _, x := range r.Samples {
		s += x.TpUS
	}
	return s / float64(len(r.Samples))
}

// MCPIMean averages mCPI over samples.
func (r *Result) MCPIMean() float64 {
	var s float64
	for _, x := range r.Samples {
		s += x.MCPI
	}
	return s / float64(len(r.Samples))
}

// Run executes the experiment. Samples are independent — each gets its own
// event queue, hosts and caches, and shares only the immutable linked
// program — so they fan out over a bounded worker pool (see SetParallelism)
// and assemble in index order, making the result identical to serial
// execution.
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run with cooperative cancellation: ctx is consulted between
// samples (each individual sample is already bounded by the event-budget
// watchdog), so a cancelled or expired context stops the experiment at the
// next sample boundary with the context's error instead of requiring the
// process to be killed.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Samples < 1 {
		cfg.Samples = 1
	}
	if cfg.Warmup < 1 {
		cfg.Warmup = 4
	}
	if cfg.Measured < 1 {
		cfg.Measured = 8
	}
	res := &Result{Config: cfg}
	samples := make([]Sample, cfg.Samples)
	err := forEachIndexedCtx(ctx, cfg.Samples, CtxParallelism(ctx), func(i int) error {
		s, err := runSample(cfg, i)
		if err != nil {
			return fmt.Errorf("core: sample %d: %w", i, err)
		}
		samples[i] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Samples = samples
	// Latency mean and standard deviation across samples.
	var sum, sum2 float64
	for _, s := range res.Samples {
		sum += s.TeUS
		sum2 += s.TeUS * s.TeUS
	}
	n := float64(len(res.Samples))
	res.TeMeanUS = sum / n
	if n > 1 {
		v := (sum2 - sum*sum/n) / (n - 1)
		if v > 0 {
			res.TeStdUS = math.Sqrt(v)
		}
	}
	res.StaticPathInstrs = staticPathInstrs(cfg)
	return res, nil
}

// staticPathInstrs computes the static mainline size of the path the
// version executes (Table 9's Size columns).
func staticPathInstrs(cfg Config) int {
	m := cfg.machine()
	prog := cfg.Custom
	if prog == nil {
		built, err := BuildProgram(cfg.Stack, cfg.Version, cfg.Feat, cfg.Strategy, m)
		if err != nil {
			return 0
		}
		prog = built
	}
	spec := stackSpec(cfg.Stack)
	names := append(append([]string(nil), spec.Path...), spec.Library...)
	if cfg.Version == PIN || cfg.Version == ALL {
		names = append([]string{"lance_rx", "lance_post"}, spec.Library...)
	}
	total := 0
	for _, n := range names {
		f := prog.Func(n)
		if f == nil {
			continue
		}
		if cfg.Version == STD {
			total += f.StaticInstrs()
		} else {
			total += f.MainlineInstrs()
		}
	}
	return total
}

// hostPair bundles one run's simulation objects.
type hostPair struct {
	q              *xkernel.EventQueue
	link           *netsim.Link
	injector       *faults.Injector // nil without an active fault plan
	clientHost     *xkernel.Host
	serverHost     *xkernel.Host
	clientProg     *code.Program
	devs           [2]*lance.Device // client, server
	tcp            [2]*tcpip.Stack  // client, server; nil on RPC
	stampFn        func() []uint64
	completedFn    func() int
	startFn        func()
	classifierMiss func() int
	onRoundtrip    func(func(int))
	faultStats     func() FaultStats
}

// buildPair constructs the two hosts for a run.
func buildPair(cfg Config, sampleIdx, roundtrips int) (*hostPair, error) {
	m := cfg.machine()
	clientProg := cfg.Custom
	if clientProg == nil {
		built, err := BuildProgram(cfg.Stack, cfg.Version, cfg.Feat, cfg.Strategy, m)
		if err != nil {
			return nil, err
		}
		clientProg = built
	}
	// The RPC server always runs the best (ALL) version so the reference
	// point stays fixed; the TCP/IP experiments optimize both sides (and
	// so does a Custom image).
	serverProg := cfg.Custom
	if cfg.Stack == StackRPC || serverProg == nil {
		serverVersion := cfg.Version
		if cfg.Stack == StackRPC {
			serverVersion = ALL
		}
		built, err := BuildProgram(cfg.Stack, serverVersion, cfg.Feat, cfg.Strategy, m)
		if err != nil {
			return nil, err
		}
		serverProg = built
	}

	q := xkernel.NewEventQueue()
	link := netsim.NewLink(q)
	mkHost := func(name string, prog *code.Program, perturb uint64) *xkernel.Host {
		// Hierarchies come from the reuse pool: they dominate per-sample
		// allocation (the b-cache line array alone is hundreds of KB) and
		// a pooled one resets to cold in O(1), so samples stop churning
		// the garbage collector. runSample releases them when done.
		hm := mem.NewPooled(m)
		c := cpu.New(hm)
		return xkernel.NewHost(name, c, hm, code.NewEngine(c, prog), q, perturb)
	}
	ch := mkHost("client", clientProg, uint64(sampleIdx)*17)
	sh := mkHost("server", serverProg, uint64(sampleIdx)*31+7)

	hp := &hostPair{q: q, link: link, clientHost: ch, serverHost: sh, clientProg: clientProg}
	if cfg.Faults != nil && cfg.Faults.Active() {
		hp.injector = faults.New(cfg.Faults.ForSample(sampleIdx))
		hp.injector.Attach(link)
	}
	linkStats := func() FaultStats {
		fs := FaultStats{
			LinkFrames:     link.Frames,
			LinkDelivered:  link.Delivered,
			LinkDropped:    link.Dropped,
			LinkDuplicated: link.Duplicated,
		}
		if hp.injector != nil {
			fs.Injected = hp.injector.Counters
		}
		return fs
	}

	switch cfg.Stack {
	case StackRPC:
		client := rpc.Build(ch, link, wire.MACAddr{8, 0, 0x2b, 1, 1, 1}, 0x0a000001, 0x0a000002, cfg.Feat, false, roundtrips)
		server := rpc.Build(sh, link, wire.MACAddr{8, 0, 0x2b, 2, 2, 2}, 0x0a000002, 0x0a000001, cfg.Feat, true, 0)
		rpc.Connect(client, server)
		hp.devs = [2]*lance.Device{client.Dev, server.Dev}
		if cfg.UseClassifier && (cfg.Version == PIN || cfg.Version == ALL) {
			cl := classifier.ForRPC()
			client.Dev.Classify = cl.Match
		}
		hp.stampFn = func() []uint64 { return client.Test.Stamps }
		hp.completedFn = func() int { return client.Test.Completed }
		hp.startFn = func() { client.Test.Start() }
		hp.classifierMiss = func() int { return client.Dev.ClassifierMisses }
		client.Test.OnRoundtrip = nil // installed by runSample
		hp.onRoundtrip = func(f func(int)) { client.Test.OnRoundtrip = f }
		hp.faultStats = func() FaultStats {
			fs := linkStats()
			fs.Retransmits = client.Chan.Retransmits + server.Chan.Retransmits +
				client.Blast.NackResends + server.Blast.NackResends
			fs.Aborts = client.Blast.Abandoned + server.Blast.Abandoned
			return fs
		}

	default:
		client := tcpip.Build(ch, link, wire.MACAddr{8, 0, 0x2b, 1, 1, 1}, 0xc0a80001, cfg.Feat, false, roundtrips)
		server := tcpip.Build(sh, link, wire.MACAddr{8, 0, 0x2b, 2, 2, 2}, 0xc0a80002, cfg.Feat, true, 0)
		tcpip.Connect(client, server)
		hp.devs = [2]*lance.Device{client.Dev, server.Dev}
		hp.tcp = [2]*tcpip.Stack{client, server}
		if cfg.UseClassifier && (cfg.Version == PIN || cfg.Version == ALL) {
			cl := classifier.ForTCPIP()
			client.Dev.Classify = cl.Match
			server.Dev.Classify = cl.Match
		}
		hp.stampFn = func() []uint64 { return client.Test.Stamps }
		hp.completedFn = func() int { return client.Test.Completed }
		hp.startFn = func() { client.StartClient(server) }
		hp.classifierMiss = func() int { return client.Dev.ClassifierMisses }
		hp.onRoundtrip = func(f func(int)) { client.Test.OnRoundtrip = f }
		hp.faultStats = func() FaultStats {
			fs := linkStats()
			fs.Retransmits = client.TCP.Retransmits + server.TCP.Retransmits
			fs.FastRetransmits = client.TCP.FastRetransmits + server.TCP.FastRetransmits
			fs.Aborts = client.TCP.Aborts + server.TCP.Aborts
			fs.ChecksumErrs = client.TCP.ChecksumErrs + server.TCP.ChecksumErrs +
				client.IP.ChecksumErrs + server.IP.ChecksumErrs
			return fs
		}
	}
	return hp, nil
}

// finishRun drains the event queue under the watchdog budget and verifies
// the post-run simulation invariants shared by every experiment driver:
// the budget was not exhausted, the client completed its roundtrips, the
// queue drained, roundtrip timestamps are monotonic, and every link frame
// is accounted for as delivered, dropped or duplicated — reconciling
// exactly with the fault injector when one is attached.
func (hp *hostPair) finishRun(cfg Config, sampleIdx, roundtrips int) error {
	budget := cfg.eventBudget()
	steps := hp.q.Run(budget)
	if steps == budget && hp.q.Pending() {
		return &BudgetError{Sample: sampleIdx, Budget: budget,
			Completed: hp.completedFn(), Want: roundtrips}
	}
	if done := hp.completedFn(); done < roundtrips {
		return fmt.Errorf("run stalled at %d/%d roundtrips", done, roundtrips)
	}
	if hp.q.Pending() {
		return &InvariantError{Sample: sampleIdx, Check: "queue drained",
			Detail: "events remain after the run completed"}
	}
	stamps := hp.stampFn()
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[i-1] {
			return &InvariantError{Sample: sampleIdx, Check: "monotonic time",
				Detail: fmt.Sprintf("roundtrip %d stamped %d after %d", i+1, stamps[i], stamps[i-1])}
		}
	}
	l := hp.link
	if !l.Accounted() {
		return &InvariantError{Sample: sampleIdx, Check: "frame accounting",
			Detail: fmt.Sprintf("delivered %d + dropped %d != frames %d + duplicated %d",
				l.Delivered, l.Dropped, l.Frames, l.Duplicated)}
	}
	if in := hp.injector; in != nil {
		if in.Counters.Frames != l.Frames || in.Counters.Dropped != l.Dropped ||
			in.Counters.Duplicated != l.Duplicated {
			return &InvariantError{Sample: sampleIdx, Check: "injector reconciliation",
				Detail: fmt.Sprintf("injector %v vs %v", in.Counters, l)}
		}
	}
	return nil
}

// recoverSample converts a panicking simulation into a structured error
// carrying the failing sample's fault seed. Use in a defer around a
// sample-running function's named error return.
func recoverSample(cfg Config, sampleIdx int, err *error) {
	if r := recover(); r != nil {
		*err = &SimPanicError{
			Sample: sampleIdx,
			Seed:   cfg.faultSeed(sampleIdx),
			Value:  r,
			Stack:  debug.Stack(),
		}
	}
}

// lineCoverage counts what the traced invocation fetched and executed:
// each i-cache line it fetched maps to a mask of the 4-byte instruction
// words it executed there. It is sized by what the invocation runs, a few
// hundred lines, not by the text span (version BAD's pessimal layout
// spreads a few tens of KB of code over about 100 MB of text), and one is
// reused across samples through coveragePool.
type lineCoverage struct {
	shift    uint           // log2 of the line size in bytes
	stride   int            // mask words per line
	index    map[uint64]int // fetched line -> its first word in masks
	masks    []uint64       // stride words per fetched line, from index[line]
	executed int            // instruction words marked
}

// coveragePool recycles coverage between samples. A pooled one is
// indistinguishable from a fresh one: newLineCoverage empties it.
var coveragePool = sync.Pool{New: func() any { return &lineCoverage{index: map[uint64]int{}} }}

// newLineCoverage returns an empty coverage for lines of 1<<shift bytes.
func newLineCoverage(shift uint) *lineCoverage {
	c := coveragePool.Get().(*lineCoverage)
	c.reset(shift)
	return c
}

// reset empties the coverage, keeping its storage, for lines of 1<<shift
// bytes.
func (c *lineCoverage) reset(shift uint) {
	clear(c.index)
	c.masks, c.executed = c.masks[:0], 0
	c.shift, c.stride = shift, int(max(1, (uint64(1)<<shift>>2+63)/64))
}

// release returns the coverage to the pool; it must not be used
// afterwards.
func (c *lineCoverage) release() { coveragePool.Put(c) }

// lines returns the number of distinct lines marked.
func (c *lineCoverage) lines() int { return len(c.index) }

// addRange marks every instruction word from the one holding first to the
// one holding last, and every line those words lie in.
func (c *lineCoverage) addRange(first, last uint64) {
	for line := first >> c.shift; line <= last>>c.shift; line++ {
		i, ok := c.index[line]
		if !ok {
			i = len(c.masks)
			c.index[line] = i
			c.masks = append(c.masks, make([]uint64, c.stride)...)
		}
		start := line << c.shift
		lo := (max(first, start) - start) >> 2
		hi := (min(last, start|(1<<c.shift-1)) - start) >> 2
		for w := lo >> 6; w <= hi>>6; w++ {
			mask := ^uint64(0)
			if w == lo>>6 {
				mask <<= lo & 63
			}
			if w == hi>>6 {
				mask &= ^uint64(0) >> (63 - hi&63)
			}
			old := c.masks[i+int(w)]
			c.masks[i+int(w)] = old | mask
			c.executed += bits.OnesCount64(mask &^ old)
		}
	}
}

// phaseSnap freezes the phase-accounting counters at one roundtrip
// boundary: the link's cumulative wire and controller time and both hosts'
// CPU clocks. Deltas between two snapshots decompose the interval.
type phaseSnap struct {
	wire, ctrl, client, server uint64
}

func (hp *hostPair) snapPhases() phaseSnap {
	return phaseSnap{
		wire:   hp.link.WireCycles,
		ctrl:   hp.link.ControllerCycles,
		client: hp.clientHost.CPU.Metrics().Cycles,
		server: hp.serverHost.CPU.Metrics().Cycles,
	}
}

// phaseSplit converts the counter deltas between two snapshots of a window
// totalCycles long into the §4.3 phases, in microseconds. Processing is
// both hosts' CPU time (protocol code plus interrupt handling); whatever
// the wire, controllers and CPUs cannot explain is time the simulation sat
// waiting on a protocol timer — the retransmission-backoff component that
// dominates degraded roundtrips. Clamped at zero: on clean roundtrips tiny
// boundary effects (a frame's serialization straddling the window edge)
// can leave a negative residual of a few cycles.
func phaseSplit(start, end phaseSnap, totalCycles uint64, m arch.Machine) obs.PhaseSplit {
	us := m.CyclesPerMicrosecond()
	ps := obs.PhaseSplit{
		WireUS:       float64(end.wire-start.wire) / us,
		ControllerUS: float64(end.ctrl-start.ctrl) / us,
		ProcessUS:    float64((end.client-start.client)+(end.server-start.server)) / us,
	}
	if timer := float64(totalCycles)/us - ps.WireUS - ps.ControllerUS - ps.ProcessUS; timer > 0 {
		ps.TimerWaitUS = timer
	}
	return ps
}

// runSample performs one measured run.
func runSample(cfg Config, sampleIdx int) (s Sample, err error) {
	defer recoverSample(cfg, sampleIdx, &err)
	roundtrips := cfg.Warmup + cfg.Measured
	hp, err := buildPair(cfg, sampleIdx, roundtrips)
	if err != nil {
		return Sample{}, err
	}
	m := cfg.machine()
	ch := hp.clientHost

	var startMetrics cpu.Metrics
	cov := newLineCoverage(ch.Mem.ILineShift())
	instrBytes := uint64(m.InstrBytes)
	coverage := func(addr uint64, n int) {
		cov.addRange(addr, addr+uint64(n-1)*instrBytes)
	}

	// Latency is averaged over all measured roundtrips; the trace, CPI and
	// cache statistics come from a single steady-state path invocation
	// (the final roundtrip), with the epoch-based cold/replacement
	// classification reset at its start — the paper's methodology of
	// analyzing one traced invocation.
	var traceMetrics cpu.Metrics
	var iStats, dStats, bStats, l2Stats mem.Stats
	var victimHits uint64
	var phaseStart, phaseEnd phaseSnap
	var col *obs.Collector
	if cfg.Profile {
		col = obs.NewCollector(ch.CPU, hp.clientProg)
	}
	// The final roundtrip has no follow-on request (the client is done),
	// so the traced invocation is the second-to-last roundtrip — a full
	// steady-state input+output path. The marks below can coincide for
	// small Measured values, so they are independent tests, ordered as the
	// roundtrips are.
	hp.onRoundtrip(func(n int) {
		if n == cfg.Warmup {
			// Start of the latency measurement window.
			phaseStart = hp.snapPhases()
		}
		if n == roundtrips-2 {
			ch.Mem.BeginEpoch()
			startMetrics = ch.CPU.Metrics()
			ch.Engine.Executed = coverage
			if col != nil {
				// Attach after BeginEpoch so the collector's
				// snapshot deltas line up with the epoch stats.
				col.Attach(ch.Engine)
			}
		}
		if n == roundtrips-1 {
			if col != nil {
				col.Detach(ch.Engine)
			}
			traceMetrics = ch.CPU.Metrics().Sub(startMetrics)
			iStats, dStats, bStats = ch.Mem.IStats, ch.Mem.DStats, ch.Mem.BStats
			l2Stats, victimHits = ch.Mem.L2Stats, ch.Mem.VictimHits
			ch.Engine.Executed = nil
		}
		if n == roundtrips {
			phaseEnd = hp.snapPhases()
		}
	})

	hp.startFn()
	if err := hp.finishRun(cfg, sampleIdx, roundtrips); err != nil {
		return Sample{}, err
	}

	stamps := hp.stampFn()
	M := float64(cfg.Measured)
	te := float64(stamps[roundtrips-1]-stamps[cfg.Warmup-1]) / M / m.CyclesPerMicrosecond()

	unused := 0.0
	if cov.lines() > 0 {
		slots := float64(cov.lines() * m.InstrPerBlock())
		unused = 1 - float64(cov.executed)/slots
		if unused < 0 {
			unused = 0
		}
	}

	var prof *obs.Profile
	if col != nil {
		prof = col.Profile()
	}

	s = Sample{
		TeUS:             te,
		TpUS:             float64(traceMetrics.Cycles) / m.CyclesPerMicrosecond(),
		TraceLen:         float64(traceMetrics.Instructions),
		CPI:              traceMetrics.CPI(),
		ICPI:             traceMetrics.ICPI(),
		MCPI:             traceMetrics.MCPI(),
		ICache:           iStats,
		DCache:           dStats,
		BCache:           bStats,
		L2Cache:          l2Stats,
		VictimHits:       victimHits,
		UnusedICacheFrac: unused,
		ClassifierMisses: hp.classifierMiss(),
		Faults:           hp.faultStats(),
		Phases:           phaseSplit(phaseStart, phaseEnd, stamps[roundtrips-1]-stamps[cfg.Warmup-1], m).Scale(1 / M),
		Profile:          prof,
	}
	// Everything the sample needs has been copied out; hand the pooled
	// per-sample state back for the next sample to reuse. Error and panic
	// paths skip this — the pool simply sees fewer returns.
	cov.release()
	hp.release()
	return s, nil
}

// release returns the pair's pooled simulation state for reuse: both
// hierarchies and both LANCE devices' buffers. Call only after the run has
// completed and its statistics have been extracted; the hosts must not be
// touched afterwards.
func (hp *hostPair) release() {
	hp.clientHost.Mem.Release()
	hp.serverHost.Mem.Release()
	for _, d := range hp.devs {
		d.Release()
	}
}
