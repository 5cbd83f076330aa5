package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/protocols/bsd"
	"repro/internal/protocols/features"
)

// Quality scales how much measurement the report functions perform.
type Quality struct {
	Warmup   int
	Measured int
	Samples  int
}

// Quick is a fast setting for tests and benchmarks.
var Quick = Quality{Warmup: 4, Measured: 8, Samples: 2}

// PaperQuality mirrors the paper's sample counts.
var PaperQuality = Quality{Warmup: 8, Measured: 24, Samples: 10}

// Apply stamps the quality's sampling shape onto a config.
func (q Quality) Apply(cfg Config) Config {
	cfg.Warmup, cfg.Measured = q.Warmup, q.Measured
	if cfg.Stack == StackRPC && q.Samples > 5 {
		cfg.Samples = 5
	} else {
		cfg.Samples = q.Samples
	}
	return cfg
}

// RunVersions runs all six configurations of a stack. The cells are
// independent experiments, so they run concurrently on the worker pool and
// assemble in Table 4 order.
func RunVersions(kind StackKind, q Quality) (map[Version]*Result, error) {
	return runVersions(context.Background(), kind, q, false)
}

// RunVersionsCtx is RunVersions with cooperative cancellation: ctx is
// consulted between version cells and between the samples within each.
func RunVersionsCtx(ctx context.Context, kind StackKind, q Quality) (map[Version]*Result, error) {
	return runVersions(ctx, kind, q, false)
}

// RunVersionsProfiled is RunVersions with per-function attribution
// enabled: each result's first sample carries a Profile.
func RunVersionsProfiled(kind StackKind, q Quality) (map[Version]*Result, error) {
	return runVersions(context.Background(), kind, q, true)
}

// RunVersionsProfiledCtx is RunVersionsProfiled with cooperative
// cancellation (see RunVersionsCtx).
func RunVersionsProfiledCtx(ctx context.Context, kind StackKind, q Quality) (map[Version]*Result, error) {
	return runVersions(ctx, kind, q, true)
}

func runVersions(ctx context.Context, kind StackKind, q Quality, profile bool) (map[Version]*Result, error) {
	vs := Versions()
	results := make([]*Result, len(vs))
	err := forEachIndexedCtx(ctx, len(vs), CtxParallelism(ctx), func(i int) error {
		cfg := q.Apply(DefaultConfig(kind, vs[i]))
		cfg.Profile = profile
		res, err := RunCtx(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%v/%v: %w", kind, vs[i], err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[Version]*Result{}
	for i, v := range vs {
		out[v] = results[i]
	}
	return out, nil
}

// Table1 measures the dynamic instruction-count reduction contributed by
// each §2 improvement: the fully improved stack is compared with variants
// that disable one improvement at a time (plus, for reference, all of them).
func Table1(q Quality) (string, error) {
	s, _, err := Table1Full(q)
	return s, err
}

// Table1Full is Table1 returning both the rendered text and the
// structured table for JSON export; the measurements run once.
func Table1Full(q Quality) (string, obs.Table, error) {
	type row struct {
		name string
		off  func(*features.Set)
	}
	rows := []row{
		{"Change bytes and shorts to words in TCP state", func(f *features.Set) { f.WordSizedTCPState = false }},
		{"More efficiently refresh message after processing", func(f *features.Set) { f.RefreshShortCircuit = false }},
		{"Use USC in LANCE to avoid descriptor copying", func(f *features.Set) { f.UseUSC = false }},
		{"Inlined hash-table cache test", func(f *features.Set) { f.InlinedMapCacheTest = false }},
		{"Various inlining", func(f *features.Set) { f.MiscInlining = false }},
		{"Avoid integer division", func(f *features.Set) { f.AvoidDivision = false }},
	}

	measure := func(feat features.Set) (float64, error) {
		cfg := q.Apply(DefaultConfig(StackTCPIP, STD))
		cfg.Feat = feat
		cfg.Samples = 1
		res, err := Run(cfg)
		if err != nil {
			return 0, err
		}
		return res.First().TraceLen, nil
	}

	// Cell 0 is the fully improved baseline; cell i+1 disables one
	// improvement. All cells are independent runs, measured concurrently.
	lens := make([]float64, len(rows)+1)
	err := forEachIndexed(len(rows)+1, Parallelism(), func(i int) error {
		feat := features.Improved()
		if i > 0 {
			rows[i-1].off(&feat)
		}
		v, err := measure(feat)
		lens[i] = v
		return err
	})
	if err != nil {
		return "", obs.Table{}, err
	}
	base := lens[0]

	t := obs.Table{Name: "table1",
		Title:   "Dynamic Instruction Count Reductions (TCP/IP path, per roundtrip)",
		Columns: []string{"technique", "instructions_saved"}}
	var sb strings.Builder
	sb.WriteString("Table 1: Dynamic Instruction Count Reductions (TCP/IP path, per roundtrip)\n")
	sb.WriteString(fmt.Sprintf("%-52s %s\n", "Technique", "Instructions saved"))
	total := 0.0
	for i, r := range rows {
		saved := lens[i+1] - base
		total += saved
		sb.WriteString(fmt.Sprintf("%-52s %8.0f\n", r.name+":", saved))
		t.Rows = append(t.Rows, []string{r.name, fmt.Sprintf("%.0f", saved)})
	}
	sb.WriteString(fmt.Sprintf("%-52s %8.0f\n", "Total:", total))
	t.Rows = append(t.Rows, []string{"Total", fmt.Sprintf("%.0f", total)})
	return sb.String(), t, nil
}

// Table2 compares the original (pre-§2) and improved x-kernel TCP/IP stacks
// under the STD layout.
func Table2(q Quality) (string, error) {
	s, _, err := Table2Full(q)
	return s, err
}

// Table2Full is Table2 returning both the rendered text and the
// structured table; the measurements run once.
func Table2Full(q Quality) (string, obs.Table, error) {
	run := func(feat features.Set) (*Result, error) {
		cfg := q.Apply(DefaultConfig(StackTCPIP, STD))
		cfg.Feat = feat
		return Run(cfg)
	}
	orig, err := run(features.Original())
	if err != nil {
		return "", obs.Table{}, err
	}
	impr, err := run(features.Improved())
	if err != nil {
		return "", obs.Table{}, err
	}
	m := arch.DEC3000_600()
	var sb strings.Builder
	sb.WriteString("Table 2: Performance Comparison of Original and Improved x-kernel TCP/IP Stack\n")
	sb.WriteString(fmt.Sprintf("%-28s %12s %12s\n", "", "Original:", "Improved:"))
	sb.WriteString(fmt.Sprintf("%-28s %12.1f %12.1f\n", "Roundtrip latency [us]:", orig.TeMeanUS, impr.TeMeanUS))
	sb.WriteString(fmt.Sprintf("%-28s %12.0f %12.0f\n", "Instructions executed:", orig.First().TraceLen, impr.First().TraceLen))
	sb.WriteString(fmt.Sprintf("%-28s %12.0f %12.0f\n", "Processing time [cycles]:",
		orig.First().TpUS*m.CyclesPerMicrosecond(), impr.First().TpUS*m.CyclesPerMicrosecond()))
	sb.WriteString(fmt.Sprintf("%-28s %12.2f %12.2f\n", "CPI:", orig.First().CPI, impr.First().CPI))

	t := obs.Table{Name: "table2",
		Title:   "Performance Comparison of Original and Improved x-kernel TCP/IP Stack",
		Columns: []string{"metric", "original", "improved"},
		Rows: [][]string{
			{"roundtrip_latency_us", fmt.Sprintf("%.1f", orig.TeMeanUS), fmt.Sprintf("%.1f", impr.TeMeanUS)},
			{"instructions_executed", fmt.Sprintf("%.0f", orig.First().TraceLen), fmt.Sprintf("%.0f", impr.First().TraceLen)},
			{"processing_time_cycles",
				fmt.Sprintf("%.0f", orig.First().TpUS*m.CyclesPerMicrosecond()),
				fmt.Sprintf("%.0f", impr.First().TpUS*m.CyclesPerMicrosecond())},
			{"cpi", fmt.Sprintf("%.2f", orig.First().CPI), fmt.Sprintf("%.2f", impr.First().CPI)},
		}}
	return sb.String(), t, nil
}

// Table3 compares TCP/IP implementations: the published 80386 counts, the
// BSD/DEC Unix organization, and the live x-kernel measurements.
func Table3(q Quality) (string, error) {
	s, _, err := Table3Full(q)
	return s, err
}

// Table3Full is Table3 returning both the rendered text and the
// structured table; the measurements run once.
func Table3Full(q Quality) (string, obs.Table, error) {
	decUnix, err := bsd.Measure(true)
	if err != nil {
		return "", obs.Table{}, err
	}
	xk, err := measureXKernelRegions(q)
	if err != nil {
		return "", obs.Table{}, err
	}
	ref := bsd.CJRS89()
	var sb strings.Builder
	sb.WriteString("Table 3: Comparison of TCP/IP Implementations (inbound 1B segment, bidirectional connection)\n")
	sb.WriteString(fmt.Sprintf("%-42s %10s %14s %18s\n", "", "80386", "DEC Unix-style", "Improved x-kernel"))
	sb.WriteString(fmt.Sprintf("%-42s %10s %14s %18s\n", "", "[CJRS89]", "(modeled)", "(measured)"))
	sb.WriteString(fmt.Sprintf("%-42s %10d %14d %18s\n", "...in ipintr:", ref.Ipintr, decUnix.Ipintr, "n/a"))
	sb.WriteString(fmt.Sprintf("%-42s %10d %14d %18s\n", "...in tcp_input:", ref.TCPInput, decUnix.TCPInput, "n/a"))
	sb.WriteString(fmt.Sprintf("%-42s %10s %14d %18d\n", "...between IP input and TCP input:", "-", decUnix.IPToTCP, xk.IPToTCP))
	sb.WriteString(fmt.Sprintf("%-42s %10s %14d %18d\n", "...between TCP input and socket input:", "-", decUnix.TCPToSocket, xk.TCPToSocket))
	sb.WriteString(fmt.Sprintf("%-42s %10s %14.2f %18.2f\n", "CPI:", "-", decUnix.CPI, xk.CPI))

	// The header-prediction note: on a bidirectional connection the
	// prediction fails and costs a few instructions rather than saving.
	uni, err := bsd.Measure(false)
	if err != nil {
		return "", obs.Table{}, err
	}
	sb.WriteString(fmt.Sprintf("\nHeader prediction (BSD): tcp_input runs %d instructions when the prediction fires "+
		"(unidirectional data) but %d on a bidirectional connection, where the failed prediction "+
		"test is a dozen instructions of pure overhead.\n", uni.TCPInput, decUnix.TCPInput))

	t := obs.Table{Name: "table3",
		Title:   "Comparison of TCP/IP Implementations (inbound 1B segment, bidirectional connection)",
		Columns: []string{"region", "i386_cjrs89", "dec_unix_modeled", "xkernel_measured"},
		Rows: [][]string{
			{"ipintr", fmt.Sprint(ref.Ipintr), fmt.Sprint(decUnix.Ipintr), "n/a"},
			{"tcp_input", fmt.Sprint(ref.TCPInput), fmt.Sprint(decUnix.TCPInput), "n/a"},
			{"ip_to_tcp", "-", fmt.Sprint(decUnix.IPToTCP), fmt.Sprint(xk.IPToTCP)},
			{"tcp_to_socket", "-", fmt.Sprint(decUnix.TCPToSocket), fmt.Sprint(xk.TCPToSocket)},
			{"cpi", "-", fmt.Sprintf("%.2f", decUnix.CPI), fmt.Sprintf("%.2f", xk.CPI)},
		}}
	return sb.String(), t, nil
}

// Table45 renders end-to-end roundtrip latency (Table 4) and the
// controller-adjusted variant (Table 5).
func Table45(tcpip, rpc map[Version]*Result) string {
	var sb strings.Builder
	sb.WriteString("Table 4: End-to-end Roundtrip Latency\n")
	sb.WriteString(fmt.Sprintf("%-8s %16s %8s %16s %8s\n", "Version", "TCP/IP Te [us]", "D [%]", "RPC Te [us]", "D [%]"))
	bestT, bestR := tcpip[ALL].TeMeanUS, rpc[ALL].TeMeanUS
	for _, v := range Versions() {
		t, r := tcpip[v], rpc[v]
		sb.WriteString(fmt.Sprintf("%-8s %9.1f+-%-5.2f %7.1f %9.1f+-%-5.2f %7.1f\n", v,
			t.TeMeanUS, t.TeStdUS, 100*(t.TeMeanUS-bestT)/bestT,
			r.TeMeanUS, r.TeStdUS, 100*(r.TeMeanUS-bestR)/bestR))
	}

	sb.WriteString("\nTable 5: End-to-end Roundtrip Latency Adjusted for Network Controller (-210 us)\n")
	sb.WriteString(fmt.Sprintf("%-8s %16s %8s %16s %8s\n", "Version", "TCP/IP Te [us]", "D [%]", "RPC Te [us]", "D [%]"))
	adj := 210.0
	for _, v := range Versions() {
		t, r := tcpip[v], rpc[v]
		sb.WriteString(fmt.Sprintf("%-8s %16.1f %7.1f %16.1f %7.1f\n", v,
			t.TeMeanUS-adj, 100*(t.TeMeanUS-bestT)/(bestT-adj),
			r.TeMeanUS-adj, 100*(r.TeMeanUS-bestR)/(bestR-adj)))
	}
	return sb.String()
}

// Table6 renders the cache statistics.
func Table6(tcpip, rpc map[Version]*Result) string {
	var sb strings.Builder
	sb.WriteString("Table 6: Cache Performance (client, one path invocation)\n")
	sb.WriteString(fmt.Sprintf("%-10s %-6s | %6s %6s %5s | %6s %6s %5s | %6s %6s %5s\n",
		"Stack", "Vers", "I-miss", "I-acc", "I-rep", "D-miss", "D-acc", "D-rep", "B-miss", "B-acc", "B-rep"))
	for _, kr := range []struct {
		name string
		res  map[Version]*Result
	}{{"TCP/IP", tcpip}, {"RPC", rpc}} {
		for _, v := range Versions() {
			s := kr.res[v].First()
			sb.WriteString(fmt.Sprintf("%-10s %-6v | %6d %6d %5d | %6d %6d %5d | %6d %6d %5d\n",
				kr.name, v,
				s.ICache.Misses, s.ICache.Accesses, s.ICache.ReplMisses,
				s.DCache.Misses, s.DCache.Accesses, s.DCache.ReplMisses,
				s.BCache.Misses, s.BCache.Accesses, s.BCache.ReplMisses))
		}
	}
	return sb.String()
}

// Table7 renders processing time, trace length and the CPI decomposition.
func Table7(tcpip, rpc map[Version]*Result) string {
	var sb strings.Builder
	sb.WriteString("Table 7: Protocol Processing Costs (client, one path invocation)\n")
	sb.WriteString(fmt.Sprintf("%-10s %-6s %10s %8s %7s %7s %7s\n",
		"Stack", "Vers", "Tp [us]", "Length", "CPI", "mCPI", "iCPI"))
	for _, kr := range []struct {
		name string
		res  map[Version]*Result
	}{{"TCP/IP", tcpip}, {"RPC", rpc}} {
		for _, v := range Versions() {
			s := kr.res[v].First()
			sb.WriteString(fmt.Sprintf("%-10s %-6v %10.1f %8.0f %7.2f %7.2f %7.2f\n",
				kr.name, v, s.TpUS, s.TraceLen, s.CPI, s.MCPI, s.ICPI))
		}
	}
	return sb.String()
}

// Table8 renders the improvement comparison between successive versions.
func Table8(tcpip, rpc map[Version]*Result) string {
	transitions := []struct{ from, to Version }{
		{BAD, CLO}, {STD, OUT}, {OUT, CLO}, {OUT, PIN}, {PIN, ALL},
	}
	var sb strings.Builder
	sb.WriteString("Table 8: Comparison of Latency Improvement\n")
	sb.WriteString(fmt.Sprintf("%-10s | %5s %8s %8s %6s %6s | %5s %8s %8s %6s %6s\n",
		"", "I[%]", "dTe[us]", "dTp[us]", "dNb", "dNm", "I[%]", "dTe[us]", "dTp[us]", "dNb", "dNm"))
	sb.WriteString(fmt.Sprintf("%-10s | %41s | %41s\n", "Transition", "TCP/IP", "RPC"))
	for _, tr := range transitions {
		row := fmt.Sprintf("%v->%v", tr.from, tr.to)
		var cells []string
		for _, res := range []map[Version]*Result{tcpip, rpc} {
			a, b := res[tr.from].First(), res[tr.to].First()
			dTe := res[tr.from].TeMeanUS - res[tr.to].TeMeanUS
			dTp := a.TpUS - b.TpUS
			dNb := int64(a.BCache.Accesses) - int64(b.BCache.Accesses)
			dNm := int64(a.BCache.ReplMisses) - int64(b.BCache.ReplMisses)
			dD := int64(a.DCache.Misses) - int64(b.DCache.Misses)
			iPct := 0.0
			if dNb != 0 {
				iPct = 100 * float64(dNb-dD) / float64(dNb)
			}
			cells = append(cells, fmt.Sprintf("%5.0f %8.1f %8.1f %6d %6d", iPct, dTe, dTp, dNb, dNm))
		}
		sb.WriteString(fmt.Sprintf("%-10s | %s | %s\n", row, cells[0], cells[1]))
	}
	return sb.String()
}

// Table9 reports outlining effectiveness: the unused fraction of fetched
// i-cache blocks and the static path size, with and without outlining.
func Table9(tcpip, rpc map[Version]*Result) string {
	var sb strings.Builder
	sb.WriteString("Table 9: Outlining Effectiveness\n")
	sb.WriteString(fmt.Sprintf("%-8s | %-24s | %-24s\n", "", "Without Outlining", "With Outlining"))
	sb.WriteString(fmt.Sprintf("%-8s | %10s %12s | %10s %12s\n", "Stack", "unused", "Size", "unused", "Size"))
	for _, kr := range []struct {
		name string
		res  map[Version]*Result
	}{{"TCP/IP", tcpip}, {"RPC", rpc}} {
		std, out := kr.res[STD], kr.res[OUT]
		sb.WriteString(fmt.Sprintf("%-8s | %9.0f%% %12d | %9.0f%% %12d\n", kr.name,
			std.First().UnusedICacheFrac*100, std.StaticPathInstrs,
			out.First().UnusedICacheFrac*100, out.StaticPathInstrs))
	}
	return sb.String()
}

// Figure1 renders the protocol graphs of both test configurations.
func Figure1() (string, error) {
	var sb strings.Builder
	sb.WriteString("Figure 1: Test Protocol Stacks\n\nTCP/IP stack:\n")
	hpT, err := buildPair(DefaultConfig(StackTCPIP, STD), 0, 1)
	if err != nil {
		return "", err
	}
	sb.WriteString(hpT.clientHost.Graph.Render())
	sb.WriteString("\nRPC stack:\n")
	hpR, err := buildPair(DefaultConfig(StackRPC, STD), 0, 1)
	if err != nil {
		return "", err
	}
	sb.WriteString(hpR.clientHost.Graph.Render())
	return sb.String(), nil
}

// Figure2 renders i-cache footprints of the TCP/IP path before outlining,
// after outlining, and after cloning with the bipartite layout.
func Figure2() (string, error) {
	m := arch.DEC3000_600()
	feat := features.Improved()
	var sb strings.Builder
	sb.WriteString("Figure 2: Effects of Outlining and Cloning on the i-cache footprint (TCP/IP path)\n")
	names := []string{"tcp_input", "tcp_push", "ip_demux", "ip_push"}
	for _, vc := range []struct {
		v     Version
		title string
	}{
		{STD, "Original (error handling inline)"},
		{OUT, "Outlined (mainline compressed, cold code behind each function)"},
		{CLO, "Cloned, bipartite layout (contiguous path, library partition)"},
	} {
		prog, err := BuildProgram(StackTCPIP, vc.v, feat, Bipartite, m)
		if err != nil {
			return "", err
		}
		sb.WriteString("\n" + vc.title + ":\n")
		fp, err := layout.Footprint(prog, names, m)
		if err != nil {
			return "", err
		}
		sb.WriteString(fp)
		hot, cold, gap, err := layout.FootprintStats(prog, names, m)
		if err != nil {
			return "", err
		}
		sb.WriteString(fmt.Sprintf("mainline %d blocks, outlined %d blocks, gaps %d blocks\n", hot, cold, gap))
	}
	return sb.String(), nil
}
