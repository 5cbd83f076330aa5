package verify

import (
	"repro/internal/arch"
	"repro/internal/code"
)

// CheckFunc, CheckCallGraph and CheckPlacement run one pass of Program on
// fresh scratch, so the differential test can hold each pass to its
// reference in internal/verify/wfref.
func CheckFunc(f *code.Function) error { return new(scratch).checkFunc(f) }

// CheckCallGraph is Program's call-graph pass.
func CheckCallGraph(p *code.Program) error { return new(scratch).checkCallGraph(p) }

// CheckPlacement is Program's placement pass.
func CheckPlacement(p *code.Program, m arch.Machine) error {
	return new(scratch).checkPlacement(p, m)
}
