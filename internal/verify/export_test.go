package verify

import (
	"repro/internal/arch"
	"repro/internal/code"
)

// CheckFunc, CheckCallGraph and CheckPlacement run one pass of Program on
// fresh scratch, so the differential test can hold each pass to its
// reference in internal/verify/wfref.
func CheckFunc(f *code.Function) error { return new(scratch).checkFunc(f, f.Index()) }

// CheckCallGraph is Program's call-graph pass.
func CheckCallGraph(p *code.Program) error {
	sc := new(scratch)
	sc.begin(p)
	return sc.checkCallGraph(p)
}

// CheckPlacement is Program's placement pass.
func CheckPlacement(p *code.Program, m arch.Machine) error {
	sc := new(scratch)
	sc.begin(p)
	return sc.checkPlacement(p, m)
}
