package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/sim/mem"
)

// PaperTitle is the source paper every document reproduces.
const PaperTitle = "Analysis of Techniques to Improve Protocol Processing Latency (Mosberger et al., SIGCOMM 1996)"

// profileTopConflicts bounds the conflict-set list in exported profiles.
const profileTopConflicts = 8

// NewManifest builds the run manifest for a document: the reproduction
// recipe minus execution details. command should contain only semantic
// flags — not -parallel or -json, which cannot change the output.
func NewManifest(command string, seed uint64, q Quality) obs.Manifest {
	return obs.Manifest{
		Schema:      obs.SchemaVersion,
		Paper:       PaperTitle,
		Command:     command,
		Seed:        seed,
		Parallelism: "any",
		Quality:     q.Doc(),
		Machine:     arch.DEC3000_600(),
	}
}

// Doc is the quality's manifest form.
func (q Quality) Doc() obs.QualityDoc {
	return obs.QualityDoc{Warmup: q.Warmup, Measured: q.Measured, Samples: q.Samples}
}

func cacheDoc(s mem.Stats) obs.CacheDoc {
	return obs.CacheDoc{Accesses: s.Accesses, Misses: s.Misses, ReplMisses: s.ReplMisses}
}

// SampleDoc converts one sample to its JSON form. The machine-matrix
// counters (L2, victim buffer) appear only when non-zero, so documents from
// the paper's machine keep their pre-matrix byte layout.
func SampleDoc(s Sample) obs.SampleDoc {
	var l2 *obs.CacheDoc
	if s.L2Cache != (mem.Stats{}) {
		d := cacheDoc(s.L2Cache)
		l2 = &d
	}
	return obs.SampleDoc{
		TeUS:             s.TeUS,
		TpUS:             s.TpUS,
		TraceLen:         s.TraceLen,
		CPI:              s.CPI,
		ICPI:             s.ICPI,
		MCPI:             s.MCPI,
		ICache:           cacheDoc(s.ICache),
		DCache:           cacheDoc(s.DCache),
		BCache:           cacheDoc(s.BCache),
		UnusedICacheFrac: s.UnusedICacheFrac,
		ClassifierMisses: s.ClassifierMisses,
		Phases:           s.Phases,
		L2Cache:          l2,
		VictimHits:       s.VictimHits,
	}
}

// RunDoc converts one experiment result to its JSON form. The profile, if
// the run collected one, is taken from the first sample — the same
// representative trace the paper's per-invocation statistics use.
func RunDoc(res *Result) obs.Run {
	r := obs.Run{
		Stack:            res.Config.Stack.String(),
		Version:          res.Config.Version.String(),
		TeMeanUS:         res.TeMeanUS,
		TeStdUS:          res.TeStdUS,
		StaticPathInstrs: res.StaticPathInstrs,
	}
	for _, s := range res.Samples {
		r.Samples = append(r.Samples, SampleDoc(s))
	}
	if p := res.First().Profile; p != nil {
		r.Profile = p.Doc(profileTopConflicts)
	}
	return r
}

// RunsDoc converts a version sweep to JSON runs in Table 4 order.
func RunsDoc(results map[Version]*Result) []obs.Run {
	var out []obs.Run
	for _, v := range Versions() {
		if res := results[v]; res != nil {
			out = append(out, RunDoc(res))
		}
	}
	return out
}

// FaultStudyDocOf converts a fault study's cells to their JSON form.
func FaultStudyDocOf(cfg FaultStudyConfig, cells []FaultCell) *obs.FaultStudyDoc {
	d := &obs.FaultStudyDoc{Stack: cfg.Stack.String()}
	for _, c := range cells {
		inj := c.Stats.Injected
		d.Cells = append(d.Cells, obs.FaultCellDoc{
			Version:        c.Version.String(),
			Rate:           c.Rate,
			CleanUS:        c.CleanUS,
			DegradedUS:     c.DegradedUS,
			CleanRT:        c.CleanRT,
			DegradedRT:     c.DegradedRT,
			CleanPhases:    c.CleanPhases,
			DegradedPhases: c.DegradedPhases,
			Injected: obs.InjectedDoc{
				Frames:     inj.Frames,
				Dropped:    inj.Dropped,
				Corrupted:  inj.Corrupted,
				Duplicated: inj.Duplicated,
				Reordered:  inj.Reordered,
				Jittered:   inj.Jittered,
			},
			Link: obs.LinkDoc{
				Frames:     c.Stats.LinkFrames,
				Delivered:  c.Stats.LinkDelivered,
				Dropped:    c.Stats.LinkDropped,
				Duplicated: c.Stats.LinkDuplicated,
			},
			Recovery: obs.RecoveryDoc{
				Retransmits:     c.Stats.Retransmits,
				Aborts:          c.Stats.Aborts,
				ChecksumErrors:  c.Stats.ChecksumErrs,
				FastRetransmits: c.Stats.FastRetransmits,
			},
		})
	}
	return d
}

// Table45Data returns Tables 4 (end-to-end roundtrip latency) and 5 (the
// same adjusted for the network controller).
func Table45Data(tcpip, rpc map[Version]*Result) []obs.Table {
	t4 := obs.Table{Name: "table4", Title: "End-to-end Roundtrip Latency",
		Columns: []string{"version", "tcpip_te_us", "tcpip_std_us", "tcpip_delta_pct", "rpc_te_us", "rpc_std_us", "rpc_delta_pct"}}
	t5 := obs.Table{Name: "table5", Title: "End-to-end Roundtrip Latency Adjusted for Network Controller (-210 us)",
		Columns: []string{"version", "tcpip_te_us", "tcpip_delta_pct", "rpc_te_us", "rpc_delta_pct"}}
	bestT, bestR := tcpip[ALL].TeMeanUS, rpc[ALL].TeMeanUS
	const adj = 210.0
	for _, v := range Versions() {
		t, r := tcpip[v], rpc[v]
		t4.Rows = append(t4.Rows, []string{v.String(),
			fmt.Sprintf("%.1f", t.TeMeanUS), fmt.Sprintf("%.2f", t.TeStdUS),
			fmt.Sprintf("%.1f", 100*(t.TeMeanUS-bestT)/bestT),
			fmt.Sprintf("%.1f", r.TeMeanUS), fmt.Sprintf("%.2f", r.TeStdUS),
			fmt.Sprintf("%.1f", 100*(r.TeMeanUS-bestR)/bestR)})
		t5.Rows = append(t5.Rows, []string{v.String(),
			fmt.Sprintf("%.1f", t.TeMeanUS-adj),
			fmt.Sprintf("%.1f", 100*(t.TeMeanUS-bestT)/(bestT-adj)),
			fmt.Sprintf("%.1f", r.TeMeanUS-adj),
			fmt.Sprintf("%.1f", 100*(r.TeMeanUS-bestR)/(bestR-adj))})
	}
	return []obs.Table{t4, t5}
}

// versionRows iterates both stacks' results in report order.
func versionRows(tcpip, rpc map[Version]*Result, f func(stack string, v Version, res *Result)) {
	for _, kr := range []struct {
		name string
		res  map[Version]*Result
	}{{"TCP/IP", tcpip}, {"RPC", rpc}} {
		for _, v := range Versions() {
			f(kr.name, v, kr.res[v])
		}
	}
}

// Table6Data returns the cache statistics as structured data.
func Table6Data(tcpip, rpc map[Version]*Result) obs.Table {
	t := obs.Table{Name: "table6", Title: "Cache Performance (client, one path invocation)",
		Columns: []string{"stack", "version",
			"i_miss", "i_acc", "i_repl", "d_miss", "d_acc", "d_repl", "b_miss", "b_acc", "b_repl"}}
	versionRows(tcpip, rpc, func(stack string, v Version, res *Result) {
		s := res.First()
		t.Rows = append(t.Rows, []string{stack, v.String(),
			fmt.Sprint(s.ICache.Misses), fmt.Sprint(s.ICache.Accesses), fmt.Sprint(s.ICache.ReplMisses),
			fmt.Sprint(s.DCache.Misses), fmt.Sprint(s.DCache.Accesses), fmt.Sprint(s.DCache.ReplMisses),
			fmt.Sprint(s.BCache.Misses), fmt.Sprint(s.BCache.Accesses), fmt.Sprint(s.BCache.ReplMisses)})
	})
	return t
}

// Table7Data returns the processing-cost table as structured data.
func Table7Data(tcpip, rpc map[Version]*Result) obs.Table {
	t := obs.Table{Name: "table7", Title: "Protocol Processing Costs (client, one path invocation)",
		Columns: []string{"stack", "version", "tp_us", "length", "cpi", "mcpi", "icpi"}}
	versionRows(tcpip, rpc, func(stack string, v Version, res *Result) {
		s := res.First()
		t.Rows = append(t.Rows, []string{stack, v.String(),
			fmt.Sprintf("%.1f", s.TpUS), fmt.Sprintf("%.0f", s.TraceLen),
			fmt.Sprintf("%.2f", s.CPI), fmt.Sprintf("%.2f", s.MCPI), fmt.Sprintf("%.2f", s.ICPI)})
	})
	return t
}

// Table8Data returns the latency-improvement comparison as structured data.
func Table8Data(tcpip, rpc map[Version]*Result) obs.Table {
	t := obs.Table{Name: "table8", Title: "Comparison of Latency Improvement",
		Columns: []string{"transition", "stack", "i_pct", "d_te_us", "d_tp_us", "d_nb", "d_nm"}}
	transitions := []struct{ from, to Version }{
		{BAD, CLO}, {STD, OUT}, {OUT, CLO}, {OUT, PIN}, {PIN, ALL},
	}
	for _, tr := range transitions {
		for _, kr := range []struct {
			name string
			res  map[Version]*Result
		}{{"TCP/IP", tcpip}, {"RPC", rpc}} {
			a, b := kr.res[tr.from].First(), kr.res[tr.to].First()
			dTe := kr.res[tr.from].TeMeanUS - kr.res[tr.to].TeMeanUS
			dNb := int64(a.BCache.Accesses) - int64(b.BCache.Accesses)
			dNm := int64(a.BCache.ReplMisses) - int64(b.BCache.ReplMisses)
			dD := int64(a.DCache.Misses) - int64(b.DCache.Misses)
			iPct := 0.0
			if dNb != 0 {
				iPct = 100 * float64(dNb-dD) / float64(dNb)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%v->%v", tr.from, tr.to), kr.name,
				fmt.Sprintf("%.0f", iPct), fmt.Sprintf("%.1f", dTe),
				fmt.Sprintf("%.1f", a.TpUS-b.TpUS),
				fmt.Sprint(dNb), fmt.Sprint(dNm)})
		}
	}
	return t
}

// Table9Data returns the outlining-effectiveness table as structured data.
func Table9Data(tcpip, rpc map[Version]*Result) obs.Table {
	t := obs.Table{Name: "table9", Title: "Outlining Effectiveness",
		Columns: []string{"stack", "std_unused_pct", "std_size", "out_unused_pct", "out_size"}}
	for _, kr := range []struct {
		name string
		res  map[Version]*Result
	}{{"TCP/IP", tcpip}, {"RPC", rpc}} {
		std, out := kr.res[STD], kr.res[OUT]
		t.Rows = append(t.Rows, []string{kr.name,
			fmt.Sprintf("%.0f", std.First().UnusedICacheFrac*100), fmt.Sprint(std.StaticPathInstrs),
			fmt.Sprintf("%.0f", out.First().UnusedICacheFrac*100), fmt.Sprint(out.StaticPathInstrs)})
	}
	return t
}

// ProfileReportCtx runs a profiled version sweep and renders, per
// version, the top-N mCPI contributors and the i-cache set-conflict
// heatmap — the quantitative companion to the paper's Figure 2, naming the
// functions whose placements collide. It returns the rendered report plus
// the results for structured export; ctx is consulted between the sweep's
// samples.
func ProfileReportCtx(ctx context.Context, kind StackKind, q Quality, topN int) (string, map[Version]*Result, error) {
	results, err := RunVersionsProfiledCtx(ctx, kind, q)
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Per-function mCPI attribution (%v, first sample's traced invocation)\n", kind)
	b.WriteString("Attribution is exclusive: a function's stalls exclude its callees'.\n")
	for _, v := range Versions() {
		res := results[v]
		s := res.First()
		fmt.Fprintf(&b, "\n=== %v: Te %.1f us, CPI %.2f (mCPI %.2f) ===\n",
			v, res.TeMeanUS, s.CPI, s.MCPI)
		if s.Profile == nil {
			b.WriteString("(no profile collected)\n")
			continue
		}
		b.WriteString(s.Profile.TopTable(topN))
		b.WriteString(s.Profile.Heatmap(4))
	}
	return b.String(), results, nil
}
