// Package wfref is the reference well-formedness pass, for tests only: the
// map-based checkFunc, checkCallGraph and checkPlacement verify.Program
// ran before its passes moved to block positions, interned callee ids and
// stamped scratch. It is deliberately plain — a label set per function, a
// name lookup per call, a placed-label set per function — so that its
// verdict is easy to check by reading. The differential test in
// internal/verify holds verify.Program to it error for error; nothing
// outside a test imports it.
package wfref

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/verify"
)

func errf(r verify.Reason, fn, block, format string, args ...any) *verify.VerifyError {
	return &verify.VerifyError{Reason: r, Func: fn, Block: block, Detail: fmt.Sprintf(format, args...)}
}

// Program is verify.Program as it was: CFG invariants for every
// function, the interprocedural call graph, and the placement invariants,
// returning nil or the first *verify.VerifyError in link, then source,
// order.
func Program(p *code.Program, m arch.Machine) error {
	for _, f := range p.Funcs() {
		if err := CheckFunc(f); err != nil {
			return err
		}
	}
	if err := CheckCallGraph(p); err != nil {
		return err
	}
	return CheckPlacement(p, m)
}

// CheckFunc verifies one function's CFG: structure, terminator targets,
// and reachability of mainline blocks.
func CheckFunc(f *code.Function) error {
	if len(f.Blocks) == 0 {
		return errf(verify.ReasonNoBlocks, f.Name, "", "function has no blocks")
	}
	labels := map[string]bool{}
	for _, b := range f.Blocks {
		if labels[b.Label] {
			return errf(verify.ReasonDuplicateLabel, f.Name, b.Label, "label defined twice")
		}
		labels[b.Label] = true
	}
	for _, b := range f.Blocks {
		switch b.Term.Kind {
		case code.TermJump:
			if !labels[b.Term.Then] {
				return errf(verify.ReasonDanglingLabel, f.Name, b.Label, "jump to unknown label %q", b.Term.Then)
			}
		case code.TermCond:
			if b.Term.Cond == "" {
				return errf(verify.ReasonBadTerminator, f.Name, b.Label, "conditional branch with empty condition")
			}
			if !labels[b.Term.Then] {
				return errf(verify.ReasonDanglingLabel, f.Name, b.Label, "branch to unknown label %q", b.Term.Then)
			}
			if !labels[b.Term.Else] {
				return errf(verify.ReasonDanglingLabel, f.Name, b.Label, "branch to unknown label %q", b.Term.Else)
			}
		case code.TermRet:
		default:
			return errf(verify.ReasonBadTerminator, f.Name, b.Label, "invalid terminator kind %d", b.Term.Kind)
		}
	}
	reach := verify.FuncCFG(f).Reachable()
	for _, b := range f.Blocks {
		if !reach[b.Label] && !b.Kind.Outlinable() {
			return errf(verify.ReasonUnreachable, f.Name, b.Label, "mainline block has no path from entry %q", f.Blocks[0].Label)
		}
	}
	return nil
}

// CheckCallGraph verifies every call target resolves and the call graph is
// acyclic (the engine's call stack is depth-bounded, so recursion is a
// model bug, not a feature).
func CheckCallGraph(p *code.Program) error {
	for _, f := range p.Funcs() {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Call() != "" && p.Func(in.Call()) == nil {
					return errf(verify.ReasonUnresolvedCall, f.Name, b.Label, "call to unknown function %q", in.Call())
				}
			}
		}
	}
	if cyc := verify.ProgramCallGraph(p).Cycle(); cyc != nil {
		return errf(verify.ReasonRecursion, cyc[0], "", "call cycle %v", cyc)
	}
	return nil
}

// CheckPlacement verifies the layout of every function: all blocks placed
// exactly once, segment packing contiguous and instruction-aligned, block
// sizes consistent with the bodies they claim to hold, and no two placed
// blocks overlapping anywhere in the image.
func CheckPlacement(p *code.Program, m arch.Machine) error {
	ib := uint64(m.InstrBytes)
	type span struct {
		lo, hi uint64
		fn, bl string
	}
	var spans []span
	for _, f := range p.Funcs() {
		pl := p.Placement(f.Name)
		if pl == nil {
			return errf(verify.ReasonUnplacedFunc, f.Name, "", "function has no placement")
		}
		placed := map[string]bool{}
		for _, seg := range pl.Segments {
			if seg.Addr%ib != 0 {
				return errf(verify.ReasonMisaligned, f.Name, "", "segment at %#x not %d-byte aligned", seg.Addr, ib)
			}
			addr := seg.Addr
			for i, l := range seg.Labels {
				b := f.Block(l)
				if b == nil {
					return errf(verify.ReasonStalePlacement, f.Name, l, "placement names a block the function no longer has")
				}
				if placed[l] {
					return errf(verify.ReasonStalePlacement, f.Name, l, "block placed twice")
				}
				placed[l] = true
				got, size, err := pl.BlockSpan(l)
				if err != nil {
					return errf(verify.ReasonUnplacedBlock, f.Name, l, "segment lists the block but the placement lost it")
				}
				fall := ""
				if i+1 < len(seg.Labels) {
					fall = seg.Labels[i+1]
				}
				want := len(b.Instrs) + termSize(f, b, fall)
				if size != want {
					return errf(verify.ReasonSegmentEscape, f.Name, l,
						"placed size %d instrs, body requires %d (block mutated after placement?)", size, want)
				}
				if got != addr {
					return errf(verify.ReasonSegmentEscape, f.Name, l,
						"placed at %#x but contiguous packing puts it at %#x", got, addr)
				}
				if got%ib != 0 {
					return errf(verify.ReasonMisaligned, f.Name, l, "block at %#x not %d-byte aligned", got, ib)
				}
				if size > 0 {
					spans = append(spans, span{got, got + uint64(size)*ib, f.Name, l})
				}
				addr += uint64(want) * ib
			}
		}
		for _, b := range f.Blocks {
			if !placed[b.Label] {
				return errf(verify.ReasonUnplacedBlock, f.Name, b.Label, "block missing from every segment")
			}
		}
	}
	// Ties sort by function then block for deterministic error messages on
	// exact-duplicate placements.
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].lo != spans[j].lo {
			return spans[i].lo < spans[j].lo
		}
		if spans[i].fn != spans[j].fn {
			return spans[i].fn < spans[j].fn
		}
		return spans[i].bl < spans[j].bl
	})
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return errf(verify.ReasonOverlap, spans[i].fn, spans[i].bl,
				"[%#x,%#x) overlaps %s.%s ending at %#x",
				spans[i].lo, spans[i].hi, spans[i-1].fn, spans[i-1].bl, spans[i-1].hi)
		}
	}
	return nil
}

// termSize recomputes the instruction count a terminator materializes to,
// given the physically-following label.
func termSize(f *code.Function, b *code.Block, fall string) int {
	switch b.Term.Kind {
	case code.TermJump:
		if b.Term.Then == fall {
			return 0
		}
		return 1
	case code.TermCond:
		if b.Term.Then == fall || b.Term.Else == fall {
			return 1
		}
		return 2
	case code.TermRet:
		return len(f.Epilogue) + 1
	}
	return 0
}
