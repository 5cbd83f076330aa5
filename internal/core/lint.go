package core

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/protocols/features"
	"repro/internal/verify"
)

// LintCell is one version's static layout-lint verdict.
type LintCell struct {
	// Version is the linted configuration.
	Version Version
	// Report is the lint's prediction for the version's linked image.
	Report *verify.Report
}

// LintSpec returns the latency path the lint walks for one version — the
// same notion of "the path" staticPathInstrs measures: the stack's path and
// library functions, except under PIN/ALL where the inlined driver pair
// carries the whole path. The path names do not depend on the feature set,
// so tests and tools can lint any built image with it.
func LintSpec(kind StackKind, v Version) verify.PathSpec {
	spec := stackSpec(kind)
	if v == PIN || v == ALL {
		return verify.PathSpec{Path: []string{"lance_rx", "lance_post"}, Library: spec.Library}
	}
	return verify.PathSpec{Path: spec.Path, Library: spec.Library}
}

// LintStudy lints every version's linked image: a purely static sweep that
// predicts per-version i-cache behaviour in microseconds of CPU time rather
// than minutes of simulation. Cells come back in Versions() order.
func LintStudy(kind StackKind, strat CloneStrategy) ([]LintCell, error) {
	m := arch.DEC3000_600()
	feat := features.Improved()
	var cells []LintCell
	for _, v := range Versions() {
		prog, err := BuildProgram(kind, v, feat, strat, m)
		if err != nil {
			return nil, err
		}
		rep, err := verify.Lint(prog, LintSpec(kind, v), m)
		if err != nil {
			return nil, fmt.Errorf("core: lint %v/%v: %w", kind, v, err)
		}
		cells = append(cells, LintCell{Version: v, Report: rep})
	}
	return cells, nil
}

// RenderLintStudy formats a lint study as the text report protolat -lint
// prints.
func RenderLintStudy(kind StackKind, strat CloneStrategy, cells []LintCell) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Layout lint: predicted steady-state i-cache conflicts on the latency path\n")
	fmt.Fprintf(&sb, "(%v stack, %v clone layout; static analysis of placed addresses, no simulation)\n\n", kind, strat)
	fmt.Fprintf(&sb, "%-8s %12s %15s %21s %19s\n",
		"version", "path-blocks", "predicted-repl", "partition-violations", "hot/cold-interleave")
	for _, c := range cells {
		fmt.Fprintf(&sb, "%-8v %12d %15d %21d %19d\n",
			c.Version, c.Report.PathBlocks, c.Report.PredictedRepl,
			c.Report.PartitionViolations, c.Report.HotColdInterleave)
	}
	sb.WriteString("\nworst predicted conflict sets:\n")
	for _, c := range cells {
		if len(c.Report.Conflicts) == 0 {
			fmt.Fprintf(&sb, "%-8v (none)\n", c.Version)
			continue
		}
		fmt.Fprintf(&sb, "%-8v", c.Version)
		for i, cf := range c.Report.Conflicts {
			if i == 3 {
				fmt.Fprintf(&sb, " ... (%d more)", len(c.Report.Conflicts)-i)
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

// LintStudyDocOf converts a lint study to its JSON form.
func LintStudyDocOf(kind StackKind, strat CloneStrategy, cells []LintCell) *obs.VerifyDoc {
	doc := &obs.VerifyDoc{Stack: kind.String(), Strategy: strat.String()}
	for _, c := range cells {
		cell := obs.LintCellDoc{
			Version:             c.Version.String(),
			PathBlocks:          c.Report.PathBlocks,
			PredictedRepl:       c.Report.PredictedRepl,
			PartitionViolations: c.Report.PartitionViolations,
			HotColdInterleave:   c.Report.HotColdInterleave,
		}
		for _, cf := range c.Report.Conflicts {
			cell.Conflicts = append(cell.Conflicts, obs.LintSetDoc{
				Set:        cf.Set,
				Blocks:     cf.Blocks,
				ReplMisses: cf.ReplMisses,
				Funcs:      cf.Funcs,
			})
		}
		doc.Cells = append(doc.Cells, cell)
	}
	return doc
}
