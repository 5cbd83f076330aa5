package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/protocols/features"
	"repro/internal/sim/cpu"
	"repro/internal/trace"
)

func TestBuildProgramAllVersions(t *testing.T) {
	m := arch.DEC3000_600()
	for _, kind := range []StackKind{StackTCPIP, StackRPC} {
		for _, v := range Versions() {
			p, err := BuildProgram(kind, v, features.Improved(), Bipartite, m)
			if err != nil {
				t.Fatalf("%v/%v: %v", kind, v, err)
			}
			if p.TextEnd() <= p.TextBase() && v == STD {
				t.Fatalf("%v/%v: empty image", kind, v)
			}
		}
	}
}

func quickCfg(kind StackKind, v Version) Config {
	cfg := DefaultConfig(kind, v)
	cfg.Warmup, cfg.Measured, cfg.Samples = 4, 8, 2
	return cfg
}

func TestRunSTDTCPIP(t *testing.T) {
	res, err := Run(quickCfg(StackTCPIP, STD))
	if err != nil {
		t.Fatal(err)
	}
	s := res.First()
	if s.TraceLen < 1000 || s.TraceLen > 20000 {
		t.Fatalf("trace length %v implausible", s.TraceLen)
	}
	if s.MCPI <= 0 {
		t.Fatalf("mCPI = %v", s.MCPI)
	}
	if res.TeMeanUS < 210 {
		t.Fatalf("Te %v below physical floor", res.TeMeanUS)
	}
	if res.StaticPathInstrs == 0 {
		t.Fatal("no static path size")
	}
}

// The paper's headline ordering: BAD slowest, then STD, OUT, CLO, PIN, ALL.
func TestVersionOrderingTCPIP(t *testing.T) {
	te := map[Version]float64{}
	for _, v := range Versions() {
		res, err := Run(quickCfg(StackTCPIP, v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		te[v] = res.TeMeanUS
	}
	order := Versions() // BAD, STD, OUT, CLO, PIN, ALL
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if te[a] < te[b]-0.5 { // allow half-microsecond noise
			t.Errorf("ordering violated: %v (%.1f us) faster than %v (%.1f us)", a, te[a], b, te[b])
		}
	}
	if te[BAD] <= te[ALL] {
		t.Fatalf("BAD (%v) not slower than ALL (%v)", te[BAD], te[ALL])
	}
}

func TestVersionOrderingRPC(t *testing.T) {
	te := map[Version]float64{}
	for _, v := range Versions() {
		res, err := Run(quickCfg(StackRPC, v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		te[v] = res.TeMeanUS
	}
	if te[BAD] <= te[STD] || te[STD] <= te[ALL] {
		t.Fatalf("RPC ordering violated: BAD=%.1f STD=%.1f ALL=%.1f", te[BAD], te[STD], te[ALL])
	}
}

func TestMCPIReduction(t *testing.T) {
	bad, err := Run(quickCfg(StackTCPIP, BAD))
	if err != nil {
		t.Fatal(err)
	}
	all, err := Run(quickCfg(StackTCPIP, ALL))
	if err != nil {
		t.Fatal(err)
	}
	ratio := bad.MCPIMean() / all.MCPIMean()
	if ratio < 1.5 {
		t.Fatalf("BAD/ALL mCPI ratio %.2f too small (paper: ~3.9)", ratio)
	}
}

func TestOutliningReducesICPI(t *testing.T) {
	std, err := Run(quickCfg(StackTCPIP, STD))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(quickCfg(StackTCPIP, OUT))
	if err != nil {
		t.Fatal(err)
	}
	if out.ICPIMean() >= std.ICPIMean() {
		t.Fatalf("outlining did not reduce iCPI: %.3f -> %.3f", std.ICPIMean(), out.ICPIMean())
	}
	if out.StaticPathInstrs >= std.StaticPathInstrs {
		t.Fatalf("outlining did not shrink the mainline: %d -> %d", std.StaticPathInstrs, out.StaticPathInstrs)
	}
}

func TestBipartiteRemovesReplacementMisses(t *testing.T) {
	out, err := Run(quickCfg(StackTCPIP, OUT))
	if err != nil {
		t.Fatal(err)
	}
	clo, err := Run(quickCfg(StackTCPIP, CLO))
	if err != nil {
		t.Fatal(err)
	}
	if clo.First().ICache.ReplMisses > out.First().ICache.ReplMisses {
		t.Fatalf("cloning increased replacement misses: %d -> %d",
			out.First().ICache.ReplMisses, clo.First().ICache.ReplMisses)
	}
}

func TestBadHasBCacheReplacementMisses(t *testing.T) {
	bad, err := Run(quickCfg(StackTCPIP, BAD))
	if err != nil {
		t.Fatal(err)
	}
	clo, err := Run(quickCfg(StackTCPIP, CLO))
	if err != nil {
		t.Fatal(err)
	}
	if bad.First().BCache.ReplMisses == 0 {
		t.Fatal("BAD layout should thrash the b-cache against data")
	}
	if clo.First().BCache.ReplMisses != 0 {
		t.Fatalf("well-placed code must not conflict in the b-cache, got %d", clo.First().BCache.ReplMisses)
	}
}

func TestClassifierCostsLatency(t *testing.T) {
	base := quickCfg(StackTCPIP, ALL)
	withCl := base
	withCl.UseClassifier = true
	r1, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(withCl)
	if err != nil {
		t.Fatal(err)
	}
	if r2.TeMeanUS <= r1.TeMeanUS {
		t.Fatalf("classifier did not add latency: %.2f vs %.2f", r1.TeMeanUS, r2.TeMeanUS)
	}
	if r2.First().ClassifierMisses != 0 {
		t.Fatalf("classifier rejected %d fast-path frames", r2.First().ClassifierMisses)
	}
}

func TestSamplesVary(t *testing.T) {
	cfg := quickCfg(StackTCPIP, STD)
	cfg.Samples = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 4 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	// The perturbed allocation origins should produce (at most small)
	// variation, and the std deviation must be finite and small relative
	// to the mean.
	if res.TeStdUS > res.TeMeanUS/10 {
		t.Fatalf("std %.2f too large vs mean %.2f", res.TeStdUS, res.TeMeanUS)
	}
}

func TestUnusedICacheFractionDropsWithOutlining(t *testing.T) {
	std, err := Run(quickCfg(StackTCPIP, STD))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(quickCfg(StackTCPIP, OUT))
	if err != nil {
		t.Fatal(err)
	}
	if out.First().UnusedICacheFrac >= std.First().UnusedICacheFrac {
		t.Fatalf("outlining did not reduce wasted i-cache bandwidth: %.3f -> %.3f",
			std.First().UnusedICacheFrac, out.First().UnusedICacheFrac)
	}
}

func TestSensitivityMachineSweep(t *testing.T) {
	q := Quality{Warmup: 3, Measured: 4, Samples: 1}
	tab, err := Sensitivity(StackTCPIP, "machine", q)
	if err != nil {
		t.Fatal(err)
	}
	if s := RenderTable(tab); !strings.Contains(s, "future") {
		t.Fatalf("sweep output malformed:\n%s", s)
	}
}

func TestFutureMachineWidensMCPI(t *testing.T) {
	q := Quality{Warmup: 3, Measured: 4, Samples: 1}
	cfg := q.Apply(DefaultConfig(StackTCPIP, STD))
	cfg.Samples = 1
	tr, err := RecordTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mNow, _, err := trace.Replay(tr, arch.DEC3000_600())
	if err != nil {
		t.Fatal(err)
	}
	mFut, _, err := trace.Replay(tr, arch.Future266())
	if err != nil {
		t.Fatal(err)
	}
	if mFut.MCPI() <= mNow.MCPI() {
		t.Fatalf("future machine mCPI %.2f not worse than testbed %.2f", mFut.MCPI(), mNow.MCPI())
	}
}

func TestRecordTraceShapes(t *testing.T) {
	cfg := DefaultConfig(StackTCPIP, STD)
	cfg.Warmup, cfg.Measured, cfg.Samples = 3, 4, 1
	tr, err := RecordTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() < 2000 || tr.Len() > 10000 {
		t.Fatalf("trace length %d implausible for one roundtrip", tr.Len())
	}
	if !slices.ContainsFunc(tr.Entries, func(e cpu.Entry) bool { return e.Taken }) {
		t.Fatal("no taken branches recorded")
	}
}

func TestThroughputUnaffectedByTechniques(t *testing.T) {
	std, err := Throughput(STD, 15, 1400)
	if err != nil {
		t.Fatal(err)
	}
	all, err := Throughput(ALL, 15, 1400)
	if err != nil {
		t.Fatal(err)
	}
	// The wire dominates: within a few percent, and never slower with
	// the techniques applied (the paper: "they slightly improved
	// throughput performance").
	if all.MBps < std.MBps*0.98 {
		t.Fatalf("techniques hurt throughput: %.3f -> %.3f MB/s", std.MBps, all.MBps)
	}
	if std.MBps < 0.5 || std.MBps > 1.25 {
		t.Fatalf("throughput %.3f MB/s implausible for 10 Mb/s Ethernet", std.MBps)
	}
}

func TestThroughputBadSlowerButClose(t *testing.T) {
	bad, err := Throughput(BAD, 15, 1400)
	if err != nil {
		t.Fatal(err)
	}
	all, err := Throughput(ALL, 15, 1400)
	if err != nil {
		t.Fatal(err)
	}
	if bad.MBps > all.MBps {
		t.Fatalf("BAD layout faster in bulk transfer: %.3f vs %.3f", bad.MBps, all.MBps)
	}
	if bad.MBps < all.MBps*0.8 {
		t.Fatalf("BAD hurt throughput too much (%.3f vs %.3f); the wire should dominate", bad.MBps, all.MBps)
	}
}

func TestMultiConnectionCacheHitCollapse(t *testing.T) {
	one, err := MultiConnection(1, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	four, err := MultiConnection(4, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	if one.CacheHitRate < 0.8 {
		t.Fatalf("single connection should hit the one-entry cache: %.0f%%", one.CacheHitRate*100)
	}
	if four.CacheHitRate > 0.3 {
		t.Fatalf("round-robin over 4 connections should defeat the one-entry cache: %.0f%%", four.CacheHitRate*100)
	}
}

func TestConnectionCloningTradeoff(t *testing.T) {
	shared, err := MultiConnection(4, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	per, err := MultiConnection(4, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	// Specialization: fewer instructions per roundtrip.
	if per.InstrPerRT >= shared.InstrPerRT {
		t.Fatalf("per-connection clones not specialized: %.0f vs %.0f instrs/RT",
			per.InstrPerRT, shared.InstrPerRT)
	}
	// Locality: slower end-to-end when connections alternate.
	if per.TeUS <= shared.TeUS {
		t.Fatalf("per-connection clones should lose locality with 4 connections: %.1f vs %.1f us",
			per.TeUS, shared.TeUS)
	}
}

func TestAssociativityDoesNotRescueBad(t *testing.T) {
	// The BAD layout stacks ~30 functions on the same sets: no practical
	// associativity absorbs that, which is why layout is a software
	// problem. 2-way helps some but must stay far worse than ALL.
	q := Quality{Warmup: 3, Measured: 4, Samples: 1}
	cfgBad := q.Apply(DefaultConfig(StackTCPIP, BAD))
	cfgBad.Samples = 1
	trBad, err := RecordTrace(cfgBad)
	if err != nil {
		t.Fatal(err)
	}
	m2 := arch.DEC3000_600()
	m2.Assoc = 2
	bad2, _, err := trace.Replay(trBad, m2)
	if err != nil {
		t.Fatal(err)
	}
	bad1, _, err := trace.Replay(trBad, arch.DEC3000_600())
	if err != nil {
		t.Fatal(err)
	}
	if bad2.MCPI() >= bad1.MCPI() {
		t.Fatalf("2-way associativity did not help BAD at all: %.2f vs %.2f", bad2.MCPI(), bad1.MCPI())
	}
	if bad2.MCPI() < 1.5 {
		t.Fatalf("2-way associativity rescued the pessimal layout (mCPI %.2f); it should not", bad2.MCPI())
	}
}
