package repro

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/protocols/features"
	"repro/internal/xkernel"
)

// The bench harness regenerates every table and figure of the paper's
// evaluation section. Benchmarks report the headline metric of their
// exhibit as custom units so `go test -bench` output doubles as a summary
// of the reproduction; EXPERIMENTS.md records the paper-vs-measured
// comparison in full.

func benchQuality() core.Quality { return core.Quality{Warmup: 4, Measured: 8, Samples: 1} }

// BenchmarkTable1 regenerates the §2 instruction-count reductions.
func BenchmarkTable1_InstructionReductions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Table1Data(benchQuality()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 compares the original and improved stacks.
func BenchmarkTable2_OriginalVsImproved(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Table2Data(benchQuality()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 compares the BSD and x-kernel organizations.
func BenchmarkTable3_ImplementationComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Table3Data(benchQuality()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchVersion runs one stack/version configuration and reports its
// end-to-end latency and mCPI — the per-row measurement behind Tables 4-8.
func benchVersion(b *testing.B, kind core.StackKind, v core.Version) {
	b.Helper()
	var te, mcpi float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig(kind, v)
		cfg.Warmup, cfg.Measured, cfg.Samples = 4, 8, 1
		res, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		te, mcpi = res.TeMeanUS, res.First().MCPI
	}
	b.ReportMetric(te, "Te-us")
	b.ReportMetric(mcpi, "mCPI")
}

// BenchmarkTable4 covers every row of the end-to-end latency table (and by
// extension Tables 5-8, which derive from the same runs).
func BenchmarkTable4_EndToEndLatency(b *testing.B) {
	for _, kind := range []core.StackKind{core.StackTCPIP, core.StackRPC} {
		for _, v := range core.Versions() {
			name := fmt.Sprintf("%v/%v", kind, v)
			b.Run(name, func(b *testing.B) { benchVersion(b, kind, v) })
		}
	}
}

// BenchmarkTable6 regenerates the cache-statistics table.
func BenchmarkTable6_CachePerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig(core.StackTCPIP, core.STD)
		cfg.Warmup, cfg.Measured, cfg.Samples = 4, 8, 1
		res, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.First().ICache.Misses), "i-misses")
		b.ReportMetric(float64(res.First().DCache.Misses), "d-misses")
	}
}

// BenchmarkTable7 reports the CPI decomposition of the traced path.
func BenchmarkTable7_CPIDecomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig(core.StackTCPIP, core.ALL)
		cfg.Warmup, cfg.Measured, cfg.Samples = 4, 8, 1
		res, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.First().ICPI, "iCPI")
		b.ReportMetric(res.First().MCPI, "mCPI")
	}
}

// BenchmarkTable8 computes the version-transition improvement table.
func BenchmarkTable8_ImprovementComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		q := benchQuality()
		tcpip, err := core.RunVersions(core.StackTCPIP, q)
		if err != nil {
			b.Fatal(err)
		}
		rpc, err := core.RunVersions(core.StackRPC, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(core.Table8Data(tcpip, rpc).Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable9 measures outlining effectiveness (wasted i-cache
// bandwidth and static path size).
func BenchmarkTable9_OutliningEffectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		q := benchQuality()
		for _, v := range []core.Version{core.STD, core.OUT} {
			cfg := q.Apply(core.DefaultConfig(core.StackTCPIP, v))
			res, err := core.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if v == core.OUT {
				b.ReportMetric(res.First().UnusedICacheFrac*100, "unused-%")
				b.ReportMetric(float64(res.StaticPathInstrs), "static-instrs")
			}
		}
	}
}

// BenchmarkFigure2 renders the footprint maps.
func BenchmarkFigure2_Footprints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLayoutAblation compares the cloned-code layout strategies of
// §3.2: bipartite (the winner), micro-positioning, and linear.
func BenchmarkLayoutAblation(b *testing.B) {
	for _, strat := range []core.CloneStrategy{core.Bipartite, core.MicroPosition, core.LinearLayout} {
		b.Run(strat.String(), func(b *testing.B) {
			var te float64
			var repl uint64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(core.StackTCPIP, core.CLO)
				cfg.Strategy = strat
				cfg.Warmup, cfg.Measured, cfg.Samples = 4, 8, 1
				res, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				te = res.TeMeanUS
				repl = res.First().ICache.ReplMisses
			}
			b.ReportMetric(te, "Te-us")
			b.ReportMetric(float64(repl), "repl-misses")
		})
	}
}

// BenchmarkRunParallel measures the Table-4-shaped workload — every
// stack×version cell, multiple samples each — under different worker-pool
// widths. Each workers=N sub-benchmark reports its wall-clock speedup over
// the workers=1 run of the same invocation plus the resulting parallel
// efficiency (speedup/N); on a multi-core box efficiency should stay near
// 100% up to the core count, while on a single-core box every width
// legitimately reports ~100%/N. Results are byte-identical at every width,
// which TestParallelRunMatchesSerial asserts.
//
// Sub-benchmarks run sequentially in one process, so the workers=1 ns/op
// captured here is a valid in-run baseline: same binary, same warmed
// program cache, same machine state.
func BenchmarkRunParallel(b *testing.B) {
	widths := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		widths = append(widths, n)
	}
	q := core.Quality{Warmup: 4, Measured: 8, Samples: 4}
	var baselineNS float64
	for _, w := range widths {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			core.SetParallelism(w)
			defer core.SetParallelism(0)
			for i := 0; i < b.N; i++ {
				for _, kind := range []core.StackKind{core.StackTCPIP, core.StackRPC} {
					if _, err := core.RunVersions(kind, q); err != nil {
						b.Fatal(err)
					}
				}
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if w == 1 {
				baselineNS = ns
			}
			if baselineNS > 0 {
				speedup := baselineNS / ns
				b.ReportMetric(speedup, "speedup")
				b.ReportMetric(speedup/float64(w)*100, "parallel-eff-%")
			}
		})
	}
}

// BenchmarkProgramBuildCached contrasts a cold program build+link with the
// memoized hit the experiment runner sees after the first sample.
func BenchmarkProgramBuildCached(b *testing.B) {
	m := arch.DEC3000_600()
	feat := features.Improved()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildProgramUncached(core.StackTCPIP, core.ALL, feat, core.Bipartite, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		if _, err := core.BuildProgram(core.StackTCPIP, core.ALL, feat, core.Bipartite, m); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildProgram(core.StackTCPIP, core.ALL, feat, core.Bipartite, m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClassifier measures the §4.2 packet-classifier overhead on the
// inlined fast path.
func BenchmarkClassifier(b *testing.B) {
	cl := classifier.ForTCPIP()
	frame := make([]byte, 60)
	frame[12], frame[13] = 0x08, 0x00
	frame[14] = 0x45
	frame[23] = 6
	frame[46] = 0x50
	var cycles uint64
	for i := 0; i < b.N; i++ {
		ok, c := cl.Match(frame)
		if !ok {
			b.Fatal("fast-path frame rejected")
		}
		cycles = c
	}
	b.ReportMetric(float64(cycles)/float64(arch.DEC3000_600().ClockMHz), "us-per-packet")
}

// BenchmarkMapTraversal measures the §2.2.1 hash-table traversal speedup:
// the non-empty-bucket list against the naive full scan at ~10% occupancy.
func BenchmarkMapTraversal(b *testing.B) {
	build := func() *xkernel.Map {
		m := xkernel.NewMap(1024)
		for i := 0; i < 100; i++ {
			m.Bind([]byte{byte(i), byte(i >> 8), 0x9c}, i)
		}
		return m
	}
	b.Run("nonempty-list", func(b *testing.B) {
		m := build()
		for i := 0; i < b.N; i++ {
			n := 0
			m.Walk(func(k []byte, v interface{}) bool { n++; return true })
			if n != 100 {
				b.Fatal("missed entries")
			}
		}
		b.ReportMetric(float64(m.WalkVisited), "buckets-visited")
	})
	b.Run("full-scan", func(b *testing.B) {
		m := build()
		for i := 0; i < b.N; i++ {
			n := 0
			m.WalkFullScan(func(k []byte, v interface{}) bool { n++; return true })
			if n != 100 {
				b.Fatal("missed entries")
			}
		}
		b.ReportMetric(float64(m.WalkVisited), "buckets-visited")
	})
}

// BenchmarkOutlineTransform measures the outliner itself over the full
// TCP/IP image.
func BenchmarkOutlineTransform(b *testing.B) {
	m := arch.DEC3000_600()
	prog, err := core.BuildProgram(core.StackTCPIP, core.STD, features.Improved(), core.Bipartite, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := layout.Outline(prog)
		if err := q.Link(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathInline measures the path-inliner building the merged
// input-path function.
func BenchmarkPathInline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := arch.DEC3000_600()
		if _, err := core.BuildProgram(core.StackTCPIP, core.PIN, features.Improved(), core.Bipartite, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThroughput verifies the §4.1 claim: the latency techniques do
// not hurt bulk-transfer goodput on the 10 Mb/s wire.
func BenchmarkThroughput(b *testing.B) {
	for _, v := range []core.Version{core.STD, core.ALL} {
		b.Run(v.String(), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				r, err := core.Throughput(v, 20, 1400)
				if err != nil {
					b.Fatal(err)
				}
				mbps = r.MBps
			}
			b.ReportMetric(mbps, "MB/s")
		})
	}
}

// BenchmarkSensitivity runs STD and ALL on the machine sweep's two machines
// (the paper's closing-remark experiment).
func BenchmarkSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Sensitivity(context.Background(), core.StackTCPIP, "machine", core.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssociativityWhatIf asks whether LRU associativity would have
// absorbed the pessimal layout (it does not).
func BenchmarkAssociativityWhatIf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Sensitivity(context.Background(), core.StackTCPIP, "assoc", core.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnectionCloning runs §3.2's connection-time cloning trade-off.
func BenchmarkConnectionCloning(b *testing.B) {
	for _, per := range []bool{false, true} {
		name := "shared"
		if per {
			name = "per-connection"
		}
		b.Run(name, func(b *testing.B) {
			var te float64
			for i := 0; i < b.N; i++ {
				r, err := core.MultiConnection(4, 16, per)
				if err != nil {
					b.Fatal(err)
				}
				te = r.TeUS
			}
			b.ReportMetric(te, "Te-us")
		})
	}
}
