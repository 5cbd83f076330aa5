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

// table1Rows are Table 1's §2 improvements: the row label and the
// feature switch that disables the improvement.
var table1Rows = []struct {
	name string
	off  func(*features.Set)
}{
	{"Change bytes and shorts to words in TCP state", func(f *features.Set) { f.WordSizedTCPState = false }},
	{"More efficiently refresh message after processing", func(f *features.Set) { f.RefreshShortCircuit = false }},
	{"Use USC in LANCE to avoid descriptor copying", func(f *features.Set) { f.UseUSC = false }},
	{"Inlined hash-table cache test", func(f *features.Set) { f.InlinedMapCacheTest = false }},
	{"Various inlining", func(f *features.Set) { f.MiscInlining = false }},
	{"Avoid integer division", func(f *features.Set) { f.AvoidDivision = false }},
}

// Table1Data measures the dynamic instruction-count reduction contributed
// by each §2 improvement: the fully improved stack is compared with
// variants that disable one improvement at a time, plus their total.
func Table1Data(q Quality) (obs.Table, error) {
	// Cell 0 is the fully improved baseline; cell i+1 disables one
	// improvement. All cells are independent runs, measured concurrently.
	lens := make([]float64, len(table1Rows)+1)
	err := forEachIndexed(len(lens), Parallelism(), func(i int) error {
		cfg := q.Apply(DefaultConfig(StackTCPIP, STD))
		cfg.Feat = features.Improved()
		if i > 0 {
			table1Rows[i-1].off(&cfg.Feat)
		}
		cfg.Samples = 1
		res, err := Run(cfg)
		if err != nil {
			return err
		}
		lens[i] = res.First().TraceLen
		return nil
	})
	if err != nil {
		return obs.Table{}, err
	}
	t := obs.Table{Name: "table1",
		Title:   "Dynamic Instruction Count Reductions (TCP/IP path, per roundtrip)",
		Columns: []string{"technique", "instructions_saved"}}
	total := 0.0
	for i, r := range table1Rows {
		saved := lens[i+1] - lens[0]
		total += saved
		t.Rows = append(t.Rows, []string{r.name, fmt.Sprintf("%.0f", saved)})
	}
	t.Rows = append(t.Rows, []string{"Total", fmt.Sprintf("%.0f", total)})
	return t, nil
}

// Table2Data compares the original (pre-§2) and improved x-kernel TCP/IP
// stacks under the STD layout.
func Table2Data(q Quality) (obs.Table, error) {
	var res [2]*Result
	for i, feat := range []features.Set{features.Original(), features.Improved()} {
		cfg := q.Apply(DefaultConfig(StackTCPIP, STD))
		cfg.Feat = feat
		var err error
		if res[i], err = Run(cfg); err != nil {
			return obs.Table{}, err
		}
	}
	cycles := arch.DEC3000_600().CyclesPerMicrosecond()
	t := obs.Table{Name: "table2",
		Title:   "Performance Comparison of Original and Improved x-kernel TCP/IP Stack",
		Columns: []string{"metric", "original", "improved"}}
	for _, m := range []struct {
		name, format string
		value        func(*Result) float64
	}{
		{"roundtrip_latency_us", "%.1f", func(r *Result) float64 { return r.TeMeanUS }},
		{"instructions_executed", "%.0f", func(r *Result) float64 { return r.First().TraceLen }},
		{"processing_time_cycles", "%.0f", func(r *Result) float64 { return r.First().TpUS * cycles }},
		{"cpi", "%.2f", func(r *Result) float64 { return r.First().CPI }},
	} {
		t.Rows = append(t.Rows, []string{m.name, fmt.Sprintf(m.format, m.value(res[0])), fmt.Sprintf(m.format, m.value(res[1]))})
	}
	return t, nil
}

// Table3Data compares TCP/IP implementations: the published 80386 counts,
// the BSD/DEC Unix organization, and the live x-kernel measurements. Its
// last row is BSD's tcp_input on a unidirectional connection, where header
// prediction fires.
func Table3Data(q Quality) (obs.Table, error) {
	decUnix, err := bsd.Measure(true)
	if err != nil {
		return obs.Table{}, err
	}
	uni, err := bsd.Measure(false)
	if err != nil {
		return obs.Table{}, err
	}
	xk, err := measureXKernelRegions(q)
	if err != nil {
		return obs.Table{}, err
	}
	ref := bsd.CJRS89()
	return obs.Table{Name: "table3",
		Title:   "Comparison of TCP/IP Implementations (inbound 1B segment, bidirectional connection)",
		Columns: []string{"region", "i386_cjrs89", "dec_unix_modeled", "xkernel_measured"},
		Rows: [][]string{
			{"ipintr", fmt.Sprint(ref.Ipintr), fmt.Sprint(decUnix.Ipintr), "n/a"},
			{"tcp_input", fmt.Sprint(ref.TCPInput), fmt.Sprint(decUnix.TCPInput), "n/a"},
			{"ip_to_tcp", "-", fmt.Sprint(decUnix.IPToTCP), fmt.Sprint(xk.IPToTCP)},
			{"tcp_to_socket", "-", fmt.Sprint(decUnix.TCPToSocket), fmt.Sprint(xk.TCPToSocket)},
			{"cpi", "-", fmt.Sprintf("%.2f", decUnix.CPI), fmt.Sprintf("%.2f", xk.CPI)},
			{"tcp_input_unidirectional", "-", fmt.Sprint(uni.TCPInput), "n/a"},
		}}, nil
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
