package soak

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/obs"
)

// latencyDoc summarizes one digest in microseconds.
func latencyDoc(d obs.Digest) obs.LatencyDoc {
	if d.Count == 0 {
		return obs.LatencyDoc{}
	}
	us := arch.DEC3000_600().CyclesPerMicrosecond()
	return obs.LatencyDoc{
		Roundtrips: d.Count,
		P50US:      float64(d.Quantile(0.50)) / us,
		P90US:      float64(d.Quantile(0.90)) / us,
		P99US:      float64(d.Quantile(0.99)) / us,
		P999US:     float64(d.Quantile(0.999)) / us,
		MeanUS:     d.MeanCycles() / us,
		MinUS:      float64(d.MinCycles) / us,
		MaxUS:      float64(d.MaxCycles) / us,
	}
}

// Doc converts a result to its JSON form.
func Doc(res *Result) *obs.SoakDoc {
	d := &obs.SoakDoc{
		Stack: res.Stack.String(),
		Units: res.Units,
		Checks: obs.SoakChecksDoc{
			Units:           res.Checks.Units,
			FrameAccounting: res.Checks.FrameAccounting,
			Reconciliation:  res.Checks.Reconciliation,
		},
	}
	for _, c := range res.Cells {
		inj := c.Stats.Injected
		d.Cells = append(d.Cells, obs.SoakCellDoc{
			Regime:   c.Regime,
			Policy:   string(c.Policy),
			Version:  c.Version.String(),
			Units:    c.Units,
			All:      latencyDoc(c.All),
			Degraded: latencyDoc(c.Degraded),
			Injected: obs.InjectedDoc{
				Frames:     inj.Frames,
				Dropped:    inj.Dropped,
				Corrupted:  inj.Corrupted,
				Duplicated: inj.Duplicated,
				Reordered:  inj.Reordered,
				Jittered:   inj.Jittered,
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

// Report renders a soak document as the soak's text report: per cell,
// the full population's tail percentiles and the degraded subset's, plus
// recovery counters and the invariant-check audit line. The schedule runs
// manifest.quality.samples batches per cell, so a document holding fewer
// units is a soak stopped early.
func Report(doc *obs.Document) string {
	d := doc.Soak
	total := len(d.Cells) * doc.Manifest.Quality.Samples
	status := "complete"
	if d.Units < total {
		status = "stopped (resumable)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Soak: %s, %d/%d units, %s\n", d.Stack, d.Units, total, status)
	b.WriteString("Tail latency per regime × policy × version [us]; 'deg' is the injector-touched subset.\n\n")
	b.WriteString("regime  policy    ver  units    rt      p50      p90      p99     p999      max | deg-rt  deg-p99 | rexmit fastrx abort\n")
	b.WriteString("------  ------    ---  -----    --      ---      ---      ---     ----      --- | ------  ------- | ------ ------ -----\n")
	for _, c := range d.Cells {
		all, deg := c.All, c.Degraded
		degP99 := "      -"
		if deg.Roundtrips > 0 {
			degP99 = fmt.Sprintf("%7.0f", deg.P99US)
		}
		fmt.Fprintf(&b, "%-6s  %-8s  %-3s  %5d  %4d  %7.0f  %7.0f  %7.0f  %7.0f  %7.0f | %6d  %s | %6d %6d %5d\n",
			c.Regime, c.Policy, c.Version, c.Units, all.Roundtrips,
			all.P50US, all.P90US, all.P99US, all.P999US, all.MaxUS,
			deg.Roundtrips, degP99,
			c.Recovery.Retransmits, c.Recovery.FastRetransmits, c.Recovery.Aborts)
	}
	fmt.Fprintf(&b, "\ninvariant checks: %d units ran under the watchdog/drain/monotonicity set; %d frame-accounting and %d injector-reconciliation re-verifications passed\n",
		d.Checks.Units, d.Checks.FrameAccounting, d.Checks.Reconciliation)
	return b.String()
}
