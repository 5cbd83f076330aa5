package core

import "context"

// Wrappers only the tests call: the production entry points take a
// context (the daemon's cancellation) and read results through the
// document builders.

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

// FaultStudy runs every (version, rate) cell of the study. Cells fan out
// over the worker pool and assemble in index order; within a cell, samples
// run serially with per-sample derived seeds, so the result is identical
// at any parallelism.
func FaultStudy(cfg FaultStudyConfig) ([]FaultCell, error) {
	return FaultStudyCtx(context.Background(), cfg)
}

// FaultTotals sums fault accounting over all samples.
func (r *Result) FaultTotals() FaultStats {
	var f FaultStats
	for _, s := range r.Samples {
		f.Add(s.Faults)
	}
	return f
}

// ICPIMean averages iCPI over samples.
func (r *Result) ICPIMean() float64 {
	var s float64
	for _, x := range r.Samples {
		s += x.ICPI
	}
	return s / float64(len(r.Samples))
}
