package core

import (
	"fmt"
	"strings"

	"repro/internal/obs"
)

// This file renders the text reports protolat prints. Every renderer reads
// a document alone — its sections and its manifest — so each printed
// number is computed once, where the document is built, and the text is
// identical whether the document was just computed or decoded from JSON.

// RenderRun renders a single-run document: the run's latency, CPI
// decomposition, cache statistics and §4.3 phase split.
func RenderRun(doc *obs.Document) string {
	r := doc.Runs[0]
	f := r.Samples[0]
	return fmt.Sprintf("%s %s: Te %.1f +- %.2f us | Tp %.1f us | %0.f instrs | CPI %.2f (iCPI %.2f, mCPI %.2f)\n"+
		"  i-cache %v | d-cache/wb %v | b-cache %v\n"+
		"  phases: wire %.1f us | controller %.1f us | processing %.1f us | timer wait %.1f us",
		r.Stack, r.Version, r.TeMeanUS, r.TeStdUS, f.TpUS, f.TraceLen, f.CPI, f.ICPI, f.MCPI,
		f.ICache, f.DCache, f.BCache,
		f.Phases.WireUS, f.Phases.ControllerUS, f.Phases.ProcessUS, f.Phases.TimerWaitUS)
}

// RenderTables renders every table of a document, blank-line separated.
func RenderTables(doc *obs.Document) string {
	parts := make([]string, len(doc.Tables))
	for i, t := range doc.Tables {
		parts[i] = RenderTable(t)
	}
	return strings.Join(parts, "\n")
}

// RenderReport renders the full evaluation report: Figure 1, every table
// in order, then Figure 2.
func RenderReport(doc *obs.Document) string {
	return strings.Join([]string{doc.Figures[0].Text, RenderTables(doc), doc.Figures[1].Text}, "\n") + "\n"
}

// RenderFigure renders a one-figure document: the figure's text.
func RenderFigure(doc *obs.Document) string { return doc.Figures[0].Text }

// tableLabels are the text labels of the metric rows of Tables 2 and 3,
// by row key; a row without a label is not printed as a table row.
var tableLabels = map[string]string{
	"roundtrip_latency_us":   "Roundtrip latency [us]:",
	"instructions_executed":  "Instructions executed:",
	"processing_time_cycles": "Processing time [cycles]:",
	"cpi":                    "CPI:",
	"ipintr":                 "...in ipintr:",
	"tcp_input":              "...in tcp_input:",
	"ip_to_tcp":              "...between IP input and TCP input:",
	"tcp_to_socket":          "...between TCP input and socket input:",
}

// cell returns column col of the row whose first cell is key.
func cell(t obs.Table, key string, col int) string {
	for _, r := range t.Rows {
		if r[0] == key {
			return r[col]
		}
	}
	return ""
}

// RenderTable renders one table as the report prints it. The paper's
// tables carry their number in the heading; every cell is printed from
// the table's own strings, right-aligned to the report's column widths.
func RenderTable(t obs.Table) string {
	var b strings.Builder
	row := func(format string, r []string) {
		args := make([]any, len(r))
		for i, c := range r {
			args[i] = c
		}
		fmt.Fprintf(&b, format, args...)
	}
	if n, ok := strings.CutPrefix(t.Name, "table"); ok {
		fmt.Fprintf(&b, "Table %s: %s\n", n, t.Title)
	} else {
		b.WriteString(t.Title + "\n")
	}
	switch t.Name {
	case "table1":
		fmt.Fprintf(&b, "%-52s %s\n", "Technique", "Instructions saved")
		for _, r := range t.Rows {
			fmt.Fprintf(&b, "%-52s %8s\n", r[0]+":", r[1])
		}
	case "table2":
		fmt.Fprintf(&b, "%-28s %12s %12s\n", "", "Original:", "Improved:")
		for _, r := range t.Rows {
			fmt.Fprintf(&b, "%-28s %12s %12s\n", tableLabels[r[0]], r[1], r[2])
		}
	case "table3":
		fmt.Fprintf(&b, "%-42s %10s %14s %18s\n", "", "80386", "DEC Unix-style", "Improved x-kernel")
		fmt.Fprintf(&b, "%-42s %10s %14s %18s\n", "", "[CJRS89]", "(modeled)", "(measured)")
		for _, r := range t.Rows {
			if label, ok := tableLabels[r[0]]; ok {
				fmt.Fprintf(&b, "%-42s %10s %14s %18s\n", label, r[1], r[2], r[3])
			}
		}
		// The header-prediction note: on a bidirectional connection the
		// prediction fails and costs a few instructions rather than
		// saving.
		fmt.Fprintf(&b, "\nHeader prediction (BSD): tcp_input runs %s instructions when the prediction fires "+
			"(unidirectional data) but %s on a bidirectional connection, where the failed prediction "+
			"test is a dozen instructions of pure overhead.\n", cell(t, "tcp_input_unidirectional", 2), cell(t, "tcp_input", 2))
	case "table4":
		fmt.Fprintf(&b, "%-8s %16s %8s %16s %8s\n", "Version", "TCP/IP Te [us]", "D [%]", "RPC Te [us]", "D [%]")
		for _, r := range t.Rows {
			row("%-8s %9s+-%-5s %7s %9s+-%-5s %7s\n", r)
		}
	case "table5":
		fmt.Fprintf(&b, "%-8s %16s %8s %16s %8s\n", "Version", "TCP/IP Te [us]", "D [%]", "RPC Te [us]", "D [%]")
		for _, r := range t.Rows {
			row("%-8s %16s %7s %16s %7s\n", r)
		}
	case "table6":
		fmt.Fprintf(&b, "%-10s %-6s | %6s %6s %5s | %6s %6s %5s | %6s %6s %5s\n",
			"Stack", "Vers", "I-miss", "I-acc", "I-rep", "D-miss", "D-acc", "D-rep", "B-miss", "B-acc", "B-rep")
		for _, r := range t.Rows {
			row("%-10s %-6s | %6s %6s %5s | %6s %6s %5s | %6s %6s %5s\n", r)
		}
	case "table7":
		fmt.Fprintf(&b, "%-10s %-6s %10s %8s %7s %7s %7s\n", "Stack", "Vers", "Tp [us]", "Length", "CPI", "mCPI", "iCPI")
		for _, r := range t.Rows {
			row("%-10s %-6s %10s %8s %7s %7s %7s\n", r)
		}
	case "table8":
		fmt.Fprintf(&b, "%-10s | %5s %8s %8s %6s %6s | %5s %8s %8s %6s %6s\n",
			"", "I[%]", "dTe[us]", "dTp[us]", "dNb", "dNm", "I[%]", "dTe[us]", "dTp[us]", "dNb", "dNm")
		fmt.Fprintf(&b, "%-10s | %41s | %41s\n", "Transition", "TCP/IP", "RPC")
		// Rows come in (TCP/IP, RPC) pairs per transition.
		for i := 0; i+1 < len(t.Rows); i += 2 {
			tr, rp := t.Rows[i], t.Rows[i+1]
			fmt.Fprintf(&b, "%-10s | %5s %8s %8s %6s %6s | %5s %8s %8s %6s %6s\n",
				tr[0], tr[2], tr[3], tr[4], tr[5], tr[6], rp[2], rp[3], rp[4], rp[5], rp[6])
		}
	case "table9":
		fmt.Fprintf(&b, "%-8s | %-24s | %-24s\n", "", "Without Outlining", "With Outlining")
		fmt.Fprintf(&b, "%-8s | %10s %12s | %10s %12s\n", "Stack", "unused", "Size", "unused", "Size")
		for _, r := range t.Rows {
			row("%-8s | %9s%% %12s | %9s%% %12s\n", r)
		}
	case "throughput":
		fmt.Fprintf(&b, "%-8s %12s\n", "Version", "MB/s")
		for _, r := range t.Rows {
			row("%-8s %12s\n", r)
		}
		b.WriteString("\nThe 10 Mb/s wire dominates bulk transfer, so the latency techniques\n" +
			"leave throughput essentially unchanged — the paper's §4.1 observation.\n")
	case "multiconn":
		w := len(t.Columns[1])
		for _, r := range t.Rows {
			w = max(w, len(r[1]))
		}
		fmt.Fprintf(&b, "%-6s %-*s %10s %12s %12s\n", "conns", w, "clones", "Te [us]", "cache hits", "instrs/RT")
		for _, r := range t.Rows {
			fmt.Fprintf(&b, "%-6s %-*s %10s %11s%% %12s\n", r[0], w, r[1], r[2], r[3], r[4])
		}
		b.WriteString("\nPer-connection clones execute fewer instructions (connection state is\n" +
			"partially evaluated into the code) but alternate between code copies,\n" +
			"so locality of reference suffers as connections multiply — the paper's\n" +
			"stated trade-off for delaying cloning until connection setup.\n")
	case "sensitivity":
		// The compared versions name the mCPI columns ("std_mcpi").
		a := strings.ToUpper(strings.TrimSuffix(t.Columns[1], "_mcpi"))
		v := strings.ToUpper(strings.TrimSuffix(t.Columns[2], "_mcpi"))
		fmt.Fprintf(&b, "%-34s %10s %10s %12s %12s\n", "machine", a+" mCPI", v+" mCPI", v+" speedup", "saved [us]")
		for _, r := range t.Rows {
			row("%-34s %10s %10s %11s%% %12s\n", r)
		}
	}
	return b.String()
}

// faultPlanDesc describes PlanForRate, the fault study's per-frame plan.
const faultPlanDesc = "loss r, corruption r, duplication r/2, reordering r/2"

// RenderFaultStudy renders the degraded-path latency study: per strategy
// and fault rate, mainline vs degraded roundtrip latency, the degradation
// penalty, and the injected-fault counters reconciled against the link
// totals.
func RenderFaultStudy(doc *obs.Document) string {
	fs, m := doc.FaultStudy, doc.Manifest
	var b strings.Builder
	fmt.Fprintf(&b, "Fault-injection study: mainline vs degraded-path latency (%s, seed %d)\n", fs.Stack, m.Seed)
	fmt.Fprintf(&b, "Per-frame plan at rate r: %s.\n", faultPlanDesc)
	fmt.Fprintf(&b, "Quality: %d warmup + %d measured roundtrips, %d sample(s) per cell.\n\n",
		m.Quality.Warmup, m.Quality.Measured, m.Quality.Samples)
	b.WriteString("version  rate   clean[us]  degraded[us]  penalty  rt(c/d)   drop  corr   dup  reord  rexmit  abort  ckerr\n")
	b.WriteString("-------  ----   ---------  ------------  -------  -------   ----  ----   ---  -----  ------  -----  -----\n")
	// Link totals over every cell; injector and link counters over the
	// fault cells, where the two must reconcile.
	var total, link obs.LinkDoc
	var inj obs.InjectedDoc
	for _, c := range fs.Cells {
		degraded, penalty := "         -", "      -"
		if c.DegradedRT > 0 {
			degraded = fmt.Sprintf("%10.1f", c.DegradedUS)
			p := 0.0
			if c.CleanRT > 0 && c.CleanUS != 0 {
				p = c.DegradedUS / c.CleanUS
			}
			penalty = fmt.Sprintf("%6.2fx", p)
		}
		ci := c.Injected
		fmt.Fprintf(&b, "%-7s  %.2f  %10.1f  %s  %s  %4d/%-3d  %5d %5d %5d  %5d  %6d  %5d  %5d\n",
			c.Version, c.Rate, c.CleanUS, degraded, penalty, c.CleanRT, c.DegradedRT,
			ci.Dropped, ci.Corrupted, ci.Duplicated, ci.Reordered,
			c.Recovery.Retransmits, c.Recovery.Aborts, c.Recovery.ChecksumErrors)
		total.Frames += c.Link.Frames
		total.Delivered += c.Link.Delivered
		total.Dropped += c.Link.Dropped
		total.Duplicated += c.Link.Duplicated
		if c.Rate > 0 {
			inj.Frames += ci.Frames
			inj.Dropped += ci.Dropped
			inj.Duplicated += ci.Duplicated
			inj.Corrupted += ci.Corrupted
			inj.Reordered += ci.Reordered
			link.Frames += c.Link.Frames
			link.Dropped += c.Link.Dropped
			link.Duplicated += c.Link.Duplicated
		}
	}
	b.WriteString("\nPhase split of the mean roundtrip (§4.3), per population [us]:\n")
	b.WriteString("version  rate  |      clean: wire   ctrl   proc  timer  |   degraded: wire   ctrl   proc  timer\n")
	b.WriteString("-------  ----  |             ----   ----   ----  -----  |             ----   ----   ----  -----\n")
	for _, c := range fs.Cells {
		cp := c.CleanPhases
		deg := "                 -      -      -      -"
		if c.DegradedRT > 0 {
			dp := c.DegradedPhases
			deg = fmt.Sprintf("            %6.1f %6.1f %6.1f %6.1f", dp.WireUS, dp.ControllerUS, dp.ProcessUS, dp.TimerWaitUS)
		}
		fmt.Fprintf(&b, "%-7s  %.2f  |           %6.1f %6.1f %6.1f %6.1f  | %s\n",
			c.Version, c.Rate, cp.WireUS, cp.ControllerUS, cp.ProcessUS, cp.TimerWaitUS, deg)
	}

	fmt.Fprintf(&b, "\nreconciliation (fault cells): injector saw %d/%d link frames, dropped %d/%d, duplicated %d/%d — exact per-run equality is a checked invariant\n",
		inj.Frames, link.Frames, inj.Dropped, link.Dropped, inj.Duplicated, link.Duplicated)
	fmt.Fprintf(&b, "link totals (all cells): %d frames = %d delivered + %d dropped - %d duplicated; %d corrupted, %d reordered in transit\n",
		total.Frames, total.Delivered, total.Dropped, total.Duplicated, inj.Corrupted, inj.Reordered)

	return b.String()
}

// RenderMachineStudy renders the machine-matrix study: one block per
// machine with every version's latency and cache behaviour, then a
// per-machine summary of what each technique still buys relative to STD.
func RenderMachineStudy(doc *obs.Document) string {
	md, q := doc.Machines, doc.Manifest.Quality
	var b strings.Builder
	fmt.Fprintf(&b, "Machine-model matrix: layout versions across machine shapes (%s stack, %s clone layout)\n", md.Stack, md.Strategy)
	fmt.Fprintf(&b, "Quality: %d warmup + %d measured roundtrips, %d sample(s) per cell.\n", q.Warmup, q.Measured, q.Samples)
	b.WriteString("Lint column is the static verifier's predicted steady-state i-cache replacements on the same geometry.\n\n")

	// Cells run rates innermost, so the first (model, version) pair's
	// cells are the swept rates; the rate column appears unless that is
	// the clean rate alone.
	rates := 0
	for _, c := range md.Cells {
		if c.Model == md.Cells[0].Model && c.Version == md.Cells[0].Version {
			rates++
		}
	}
	showRate := rates > 1 || (len(md.Cells) > 0 && md.Cells[0].Rate > 0)
	for _, model := range md.Models {
		fmt.Fprintf(&b, "%s — %s\n", model.Name, model.Title)
		if showRate {
			b.WriteString("version  rate    Te[us]    Tp[us]   mCPI  i-miss  i-repl  lint  l2-miss  victim\n")
			b.WriteString("-------  ----    ------    ------   ----  ------  ------  ----  -------  ------\n")
		} else {
			b.WriteString("version    Te[us]    Tp[us]   mCPI  i-miss  i-repl  lint  l2-miss  victim\n")
			b.WriteString("-------    ------    ------   ----  ------  ------  ----  -------  ------\n")
		}
		for _, c := range md.Cells {
			if c.Model != model.Name {
				continue
			}
			rate := ""
			if showRate {
				rate = fmt.Sprintf("  %.2f", c.Rate)
			}
			fmt.Fprintf(&b, "%-7s%s  %8.1f  %8.1f  %5.2f  %6d  %6d  %4d  %7d  %6d\n",
				c.Version, rate, c.TeUS, c.TpUS, c.MCPI,
				c.ICacheMisses, c.ICacheRepl, c.LintPredictedRepl, c.L2Misses, c.VictimHits)
		}
		b.WriteString("\n")
	}

	// The gains summary compares processing time (Tp), not Te: the wire
	// model charges fixed 175 MHz cycle counts, which skews Te's constant
	// wire component on clock-scaled models (future266); Tp is pure client
	// CPU time and comparable everywhere.
	b.WriteString("Tp saving over STD at rate 0 (positive = technique still pays):\n")
	b.WriteString("machine      OUT      CLO      PIN      ALL   bad-penalty\n")
	b.WriteString("-------      ---      ---      ---      ---   -----------\n")
	tp := func(model string, v Version) float64 {
		for _, c := range md.Cells {
			if c.Model == model && c.Version == v.String() && c.Rate == 0 {
				return c.TpUS
			}
		}
		return 0
	}
	for _, model := range md.Models {
		std := tp(model.Name, STD)
		if std == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-9s", model.Name)
		for _, v := range []Version{OUT, CLO, PIN, ALL} {
			gain := "      -"
			if t := tp(model.Name, v); t != 0 {
				gain = fmt.Sprintf("%+6.1f%%", (std-t)/std*100)
			}
			fmt.Fprintf(&b, " %s ", gain)
		}
		badPen := "          -"
		if bad := tp(model.Name, BAD); bad != 0 {
			badPen = fmt.Sprintf("%10.2fx", bad/std)
		}
		fmt.Fprintf(&b, " %s\n", badPen)
	}
	b.WriteString("\nNote: Te on clock-scaled models (future266) mixes the client's faster CPU with the\n")
	b.WriteString("unchanged 100 Mbit wire, whose cycle constants are calibrated at 175 MHz; compare\n")
	b.WriteString("Tp (pure CPU time) across machines and Te only within one machine.\n")
	return b.String()
}

// RenderLintStudy renders a lint study: per version, the path's i-cache
// footprint, predicted replacements and layout hygiene counters, then the
// worst predicted conflict sets.
func RenderLintStudy(doc *obs.Document) string {
	v := doc.Verify
	var sb strings.Builder
	fmt.Fprintf(&sb, "Layout lint: predicted steady-state i-cache conflicts on the latency path\n")
	fmt.Fprintf(&sb, "(%s stack, %s clone layout; static analysis of placed addresses, no simulation)\n\n", v.Stack, v.Strategy)
	fmt.Fprintf(&sb, "%-8s %12s %15s %21s %19s\n",
		"version", "path-blocks", "predicted-repl", "partition-violations", "hot/cold-interleave")
	for _, c := range v.Cells {
		fmt.Fprintf(&sb, "%-8s %12d %15d %21d %19d\n",
			c.Version, c.PathBlocks, c.PredictedRepl, c.PartitionViolations, c.HotColdInterleave)
	}
	sb.WriteString("\nworst predicted conflict sets:\n")
	for _, c := range v.Cells {
		if len(c.Conflicts) == 0 {
			fmt.Fprintf(&sb, "%-8s (none)\n", c.Version)
			continue
		}
		fmt.Fprintf(&sb, "%-8s", c.Version)
		for i, cf := range c.Conflicts {
			if i == 3 {
				fmt.Fprintf(&sb, " ... (%d more)", len(c.Conflicts)-i)
				break
			}
			fns := cf.Funcs
			if len(fns) > 5 {
				fns = append(append([]string(nil), fns[:5]...), fmt.Sprintf("+%d more", len(cf.Funcs)-5))
			}
			fmt.Fprintf(&sb, " set %d: %d repl (%s)", cf.Set, cf.ReplMisses, strings.Join(fns, ","))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
