package optimize

import (
	"fmt"
	"strings"

	"repro/internal/machines"
	"repro/internal/obs"
)

// Render renders a layout-search document as the text report protolat
// -optimize prints: per machine, the hand bipartite baseline, the
// proof-gate counters, every confirmed candidate with predicted-vs-measured
// numbers, and a verdict line comparing the best candidate's measured Tp
// to hand.
func Render(doc *obs.Document) string {
	d := doc.Optimize
	var sb strings.Builder
	fmt.Fprintf(&sb, "Layout search: static-cost-guided placement vs the hand bipartite ALL layout\n")
	fmt.Fprintf(&sb, "(%s stack; seed %d, %d annealing steps per machine, top %d confirmed by\n",
		d.Stack, d.Seed, d.Budget, d.TopK)
	fmt.Fprintf(&sb, " full simulation; every scored candidate passed well-formedness + move-only\n")
	fmt.Fprintf(&sb, " equivalence proofs, and one tamper probe per machine must be rejected)\n")
	for _, r := range d.Cells {
		// A document names its machines; the title comes from the matrix.
		m, _ := machines.ByName(r.Model)
		fmt.Fprintf(&sb, "\n%s — %s\n", r.Model, m.Title)
		fmt.Fprintf(&sb, "  hand ALL : Tp %8.2f us | repl measured %5d predicted %5d (cost %.1f)\n",
			r.HandTpUS, r.HandMeasuredRepl, r.HandPredictedRepl, r.HandPredictedCost)
		fmt.Fprintf(&sb, "  search   : examined %d | rejected well-formed %d, equivalence %d (incl. tamper probe)\n",
			r.Examined, r.RejectedWellFormed, r.RejectedEquivalence)
		for _, c := range r.Candidates {
			fmt.Fprintf(&sb, "  cand #%d  : Tp %8.2f us | repl measured %5d predicted %5d (cost %.1f) | hot %d B\n",
				c.Rank, c.MeasuredTpUS, c.MeasuredRepl, c.PredictedRepl, c.PredictedCost, c.HotBytes)
			fmt.Fprintf(&sb, "             order %s\n", candKey(c.Order, c.PadBlocks))
		}
		if len(r.Candidates) > 0 {
			best := r.Candidates[0]
			verdict := "searched layout matches-or-beats hand"
			if best.MeasuredTpUS > r.HandTpUS {
				verdict = "hand layout still ahead"
			}
			fmt.Fprintf(&sb, "  verdict  : %s (dTp %+.2f us, repl %d -> %d)\n",
				verdict, best.MeasuredTpUS-r.HandTpUS, r.HandMeasuredRepl, best.MeasuredRepl)
		}
	}
	return sb.String()
}

// DocOf converts search results to their JSON form.
func DocOf(cfg Config, results []MachineResult) *obs.OptimizeDoc {
	doc := &obs.OptimizeDoc{
		Stack:  cfg.Stack.String(),
		Seed:   cfg.Seed,
		Budget: cfg.Budget,
		TopK:   cfg.TopK,
	}
	for _, r := range results {
		cell := obs.OptimizeMachineDoc{
			Model:               r.Model.Name,
			HandTpUS:            r.HandTpUS,
			HandMeasuredRepl:    r.HandMeasuredRepl,
			HandPredictedRepl:   r.HandPredictedRepl,
			HandPredictedCost:   r.HandPredictedCost,
			Examined:            r.Examined,
			RejectedWellFormed:  r.RejectedWellFormed,
			RejectedEquivalence: r.RejectedEquivalence,
		}
		for _, c := range r.Candidates {
			cell.Candidates = append(cell.Candidates, obs.OptimizeCandidateDoc{
				Rank:          c.Rank,
				Order:         c.Order,
				PadBlocks:     c.PadBlocks,
				PredictedCost: c.PredictedCost,
				PredictedRepl: c.PredictedRepl,
				MeasuredRepl:  c.MeasuredRepl,
				MeasuredTpUS:  c.MeasuredTpUS,
				HotBytes:      c.HotBytes,
			})
		}
		doc.Cells = append(doc.Cells, cell)
	}
	return doc
}

// WeightsFromProfile derives the cost engine's per-function frequency
// weights from a dynamic profile: each profiled function weighs its call
// count (functions the profile never saw keep weight 1). This is the
// "seeded from an obs profile" mode — run protolat -profile once, feed the
// document back, and the search optimizes for the measured frequencies
// instead of the static usage hints.
func WeightsFromProfile(p *obs.Profile) map[string]float64 {
	w := map[string]float64{}
	if p == nil {
		return w
	}
	for name, fs := range p.Funcs {
		if fs.Calls > 0 {
			w[name] = float64(fs.Calls)
		}
	}
	return w
}
