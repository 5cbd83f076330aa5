package core

import (
	"fmt"

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
func LintStudy(kind StackKind) ([]LintCell, error) {
	m := arch.DEC3000_600()
	feat := features.Improved()
	var cells []LintCell
	for _, v := range Versions() {
		prog, err := BuildProgram(kind, v, feat, Bipartite, m)
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

// LintStudyDocOf converts a lint study to its JSON form.
func LintStudyDocOf(kind StackKind, cells []LintCell) *obs.VerifyDoc {
	doc := &obs.VerifyDoc{Stack: kind.String(), Strategy: Bipartite.String()}
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
