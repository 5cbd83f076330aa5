// Package verify is the static-analysis layer over the internal/code IR:
// it machine-checks every linked program the way a linker checks a real
// binary, proves the layout transformations semantics-preserving without
// running them, and predicts i-cache conflicts from placed addresses alone.
//
// Three passes:
//
//   - Well-formedness (Program): per-function CFG invariants (dangling
//     labels, invalid terminators, unreachable mainline blocks), an
//     interprocedural call graph (unresolved targets, recursion the
//     engine's bounded call stack cannot run), and placement invariants
//     (every block placed exactly once, segments packed contiguously,
//     instruction-aligned, non-overlapping). The experiment builder runs
//     this on every program it links, so a malformed layout fails fast
//     with a typed *VerifyError instead of a wrong trace or an engine
//     nil-dereference.
//
//   - Transform equivalence (CheckOutline, CheckClone, CheckInline): a
//     static sibling of the dynamic trace-comparison tests. Outlining may
//     only reorder blocks; cloning's specialization may only drop the
//     first prologue instruction per block and address loads of calls
//     inside the cloned set; path-inlining must be path-equivalent to the
//     callee chain it replaced, proven by bisimulation.
//
//   - Layout lint (Lint): map placed addresses through the arch.Machine
//     cache geometry and replay the latency path's static block-reference
//     sequence through a per-set model, predicting the replacement misses
//     a steady-state path invocation will suffer — before any simulation
//     runs.
package verify

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/code"
)

// Reason classifies a VerifyError; each constant is one distinct invariant
// the verifier enforces.
type Reason string

// Well-formedness reasons (the Program pass).
const (
	// ReasonNoBlocks flags a function with an empty block list.
	ReasonNoBlocks Reason = "no-blocks"
	// ReasonDuplicateLabel flags two blocks of one function sharing a label.
	ReasonDuplicateLabel Reason = "duplicate-label"
	// ReasonDanglingLabel flags a terminator targeting a label the
	// function does not define — the engine would resolve it to a nil
	// placed block and crash.
	ReasonDanglingLabel Reason = "dangling-label"
	// ReasonBadTerminator flags an invalid terminator kind or a
	// conditional branch with an empty condition name.
	ReasonBadTerminator Reason = "bad-terminator"
	// ReasonUnreachable flags a mainline block with no CFG path from the
	// entry. Outlinable blocks (error/init/unrolled) may be statically
	// dead: the models deliberately keep BSD-style error stubs with no
	// in-edges for their i-cache footprint.
	ReasonUnreachable Reason = "unreachable-block"
	// ReasonUnresolvedCall flags a call instruction naming a function the
	// program does not contain.
	ReasonUnresolvedCall Reason = "unresolved-call"
	// ReasonRecursion flags a cycle in the call graph; the engine's call
	// stack is bounded and the inliner would diverge on it.
	ReasonRecursion Reason = "recursive-call"
	// ReasonUnplacedFunc flags a function with no placement.
	ReasonUnplacedFunc Reason = "unplaced-function"
	// ReasonUnplacedBlock flags a block missing from its function's
	// placement (e.g. a block appended after Place ran).
	ReasonUnplacedBlock Reason = "unplaced-block"
	// ReasonStalePlacement flags a placement naming a block the function
	// no longer has (e.g. a block dropped after Place ran).
	ReasonStalePlacement Reason = "stale-placement"
	// ReasonMisaligned flags a placed address that is not a multiple of
	// the instruction size.
	ReasonMisaligned Reason = "misaligned-address"
	// ReasonSegmentEscape flags a block whose placed address or size
	// disagrees with the contiguous packing of its segment — the block
	// has escaped the address range its segment claims.
	ReasonSegmentEscape Reason = "segment-escape"
	// ReasonOverlap flags two placed blocks whose address ranges
	// intersect.
	ReasonOverlap Reason = "overlapping-placement"
)

// Transform-equivalence reasons (CheckOutline/CheckClone/CheckInline).
const (
	// ReasonFuncSetChanged flags a transformation that added or removed a
	// function it had no license to touch.
	ReasonFuncSetChanged Reason = "function-set-changed"
	// ReasonBlockSetChanged flags a block added or dropped by a
	// transformation that may only move blocks.
	ReasonBlockSetChanged Reason = "block-set-changed"
	// ReasonBlockChanged flags a block whose body, kind, or terminator
	// was altered by a move-only transformation.
	ReasonBlockChanged Reason = "block-changed"
	// ReasonOrderViolation flags outlining output that is not the hot
	// blocks (in original order) followed by the cold blocks (in original
	// order).
	ReasonOrderViolation Reason = "outline-order"
	// ReasonIllegalDrop flags a specialized clone that removed an
	// instruction specialization has no license to remove.
	ReasonIllegalDrop Reason = "illegal-drop"
	// ReasonPathDivergence flags a path-inlined function that is not
	// path-equivalent to the callee chain it replaced.
	ReasonPathDivergence Reason = "path-divergence"
)

// VerifyError is the typed failure of any verify pass: which invariant
// broke (Reason), where (Func/Block), and how (Detail).
type VerifyError struct {
	// Reason is the invariant that failed.
	Reason Reason
	// Func is the offending function's name.
	Func string
	// Block is the offending block's label ("" when the failure is not
	// tied to one block).
	Block string
	// Detail elaborates in prose.
	Detail string
}

// Error implements error.
func (e *VerifyError) Error() string {
	loc := e.Func
	if e.Block != "" {
		loc += "." + e.Block
	}
	s := fmt.Sprintf("verify: %s: %s", e.Reason, loc)
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

func errf(r Reason, fn, block, format string, args ...any) *VerifyError {
	return &VerifyError{Reason: r, Func: fn, Block: block, Detail: fmt.Sprintf(format, args...)}
}

// Program runs the full well-formedness pass over a linked program: CFG
// invariants for every function, the interprocedural call graph, and the
// placement invariants. It returns nil or the first *VerifyError found, in
// deterministic (link, then source) order.
func Program(p *code.Program, m arch.Machine) error {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	for i := 0; i < p.NumFuncs(); i++ {
		if err := sc.checkFunc(p.FuncAt(i)); err != nil {
			return err
		}
	}
	if err := sc.checkCallGraph(p); err != nil {
		return err
	}
	return sc.checkPlacement(p, m)
}

// scratch is the reusable state of one well-formedness pass. Its marks
// are stamped rather than cleared: a mark is set when it equals the
// current stamp, and taking a new stamp clears every mark at once.
type scratch struct {
	stamp uint32
	// mark is indexed by block position within one function.
	mark []uint32
	// at is the link position of each function id.
	at    []int32
	stack []int32
	// adj lists each function's distinct callees by link position, in
	// first-call order; function k's are adj[adjEnd[k-1]:adjEnd[k]].
	adj, adjEnd []int32
	color       []uint8
	spans       []span
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// newStamp starts a fresh set of marks over n slots.
func (sc *scratch) newStamp(n int) uint32 {
	if sc.stamp++; sc.stamp == 0 || len(sc.mark) < n {
		sc.mark = make([]uint32, max(n, cap(sc.mark)))
		sc.stamp = 1
	}
	return sc.stamp
}

// checkFunc verifies one function's CFG: structure, terminator targets,
// and reachability of mainline blocks.
func (sc *scratch) checkFunc(f *code.Function) error {
	if len(f.Blocks) == 0 {
		return errf(ReasonNoBlocks, f.Name, "", "function has no blocks")
	}
	ix := f.Index()
	if d := ix.Duplicate(); d >= 0 {
		return errf(ReasonDuplicateLabel, f.Name, f.Blocks[d].Label, "label defined twice")
	}
	for i, b := range f.Blocks {
		switch b.Term.Kind {
		case code.TermJump:
			if ix.Then(i) < 0 {
				return errf(ReasonDanglingLabel, f.Name, b.Label, "jump to unknown label %q", b.Term.Then)
			}
		case code.TermCond:
			if b.Term.Cond == "" {
				return errf(ReasonBadTerminator, f.Name, b.Label, "conditional branch with empty condition")
			}
			if ix.Then(i) < 0 {
				return errf(ReasonDanglingLabel, f.Name, b.Label, "branch to unknown label %q", b.Term.Then)
			}
			if ix.Else(i) < 0 {
				return errf(ReasonDanglingLabel, f.Name, b.Label, "branch to unknown label %q", b.Term.Else)
			}
		case code.TermRet:
		default:
			return errf(ReasonBadTerminator, f.Name, b.Label, "invalid terminator kind %d", b.Term.Kind)
		}
	}
	// Depth-first from the entry over terminator edges.
	reached := sc.newStamp(len(f.Blocks))
	sc.mark[0] = reached
	work := append(sc.stack[:0], 0)
	for len(work) > 0 {
		i := int(work[len(work)-1])
		work = work[:len(work)-1]
		var succ [2]int
		n := 0
		switch f.Blocks[i].Term.Kind {
		case code.TermJump:
			succ[0], n = ix.Then(i), 1
		case code.TermCond:
			succ[0], succ[1], n = ix.Then(i), ix.Else(i), 2
		}
		for _, s := range succ[:n] {
			if sc.mark[s] != reached {
				sc.mark[s] = reached
				work = append(work, int32(s))
			}
		}
	}
	sc.stack = work
	for i, b := range f.Blocks {
		if sc.mark[i] != reached && !b.Kind.Outlinable() {
			return errf(ReasonUnreachable, f.Name, b.Label, "mainline block has no path from entry %q", f.Blocks[0].Label)
		}
	}
	return nil
}

// checkCallGraph verifies every call target resolves and the call graph is
// acyclic (the engine's call stack is depth-bounded, so recursion is a
// model bug, not a feature). Functions are tried in link order and callees
// in first-call order, as CallGraph.Cycle does.
func (sc *scratch) checkCallGraph(p *code.Program) error {
	nf := p.NumFuncs()
	maxID := int32(0)
	for k := 0; k < nf; k++ {
		maxID = max(maxID, p.FuncAt(k).ID())
	}
	if len(sc.at) <= int(maxID) {
		sc.at = make([]int32, maxID+1)
	}
	for k := 0; k < nf; k++ {
		sc.at[p.FuncAt(k).ID()] = int32(k)
	}
	// Each function's distinct callees by link position.
	adj, adjEnd := sc.adj[:0], sc.adjEnd[:0]
	for k := 0; k < nf; k++ {
		f := p.FuncAt(k)
		start := len(adj)
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if !in.IsCall() {
					continue
				}
				g := p.FuncByID(in.CalleeID())
				if g == nil {
					return errf(ReasonUnresolvedCall, f.Name, b.Label, "call to unknown function %q", in.Call())
				}
				c := sc.at[g.ID()]
				if !containsID(adj[start:], c) {
					adj = append(adj, c)
				}
			}
		}
		adjEnd = append(adjEnd, int32(len(adj)))
	}
	sc.adj, sc.adjEnd = adj, adjEnd
	if cyc := sc.cycle(p); cyc != nil {
		return errf(ReasonRecursion, cyc[0], "", "call cycle %v", cyc)
	}
	return nil
}

// cycle returns one cycle of the callee lists as a function-name path
// (first element repeated at the end), or nil.
func (sc *scratch) cycle(p *code.Program) []string {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	nf := p.NumFuncs()
	color := sc.color[:0]
	for k := 0; k < nf; k++ {
		color = append(color, white)
	}
	sc.color = color
	path := sc.stack[:0]
	var found []string
	var dfs func(n int32) bool
	dfs = func(n int32) bool {
		color[n] = grey
		path = append(path, n)
		lo := int32(0)
		if n > 0 {
			lo = sc.adjEnd[n-1]
		}
		for _, c := range sc.adj[lo:sc.adjEnd[n]] {
			switch color[c] {
			case grey:
				i := slices.Index(path, c)
				for _, x := range path[i:] {
					found = append(found, p.FuncAt(int(x)).Name)
				}
				found = append(found, p.FuncAt(int(c)).Name)
				return true
			case white:
				if dfs(c) {
					return true
				}
			}
		}
		path = path[:len(path)-1]
		color[n] = black
		return false
	}
	for k := 0; k < nf; k++ {
		if color[k] == white && dfs(int32(k)) {
			break
		}
	}
	sc.stack = path[:0]
	return found
}

// span is one placed block in checkPlacement's overlap check.
type span struct {
	lo, hi uint64
	fn, bl string
}

// checkPlacement verifies the layout of every function: all blocks placed
// exactly once, segment packing contiguous and instruction-aligned, block
// sizes consistent with the bodies they claim to hold, and no two placed
// blocks overlapping anywhere in the image. It recomputes the packing from
// the segments and each block's body and compares the result with the
// placement's own addresses and sizes.
func (sc *scratch) checkPlacement(p *code.Program, m arch.Machine) error {
	ib := uint64(m.InstrBytes)
	spans := sc.spans[:0]
	defer func() { sc.spans = spans[:0] }()
	for k := 0; k < p.NumFuncs(); k++ {
		f := p.FuncAt(k)
		pl := p.PlacementOf(f)
		if pl == nil {
			return errf(ReasonUnplacedFunc, f.Name, "", "function has no placement")
		}
		ix := f.Index()
		placed := sc.newStamp(len(f.Blocks))
		for _, seg := range pl.Segments {
			if seg.Addr%ib != 0 {
				return errf(ReasonMisaligned, f.Name, "", "segment at %#x not %d-byte aligned", seg.Addr, ib)
			}
			addr := seg.Addr
			hint := -1
			for i, l := range seg.Labels {
				at := ix.Pos(l, hint)
				if at < 0 {
					return errf(ReasonStalePlacement, f.Name, l, "placement names a block the function no longer has")
				}
				hint = at + 1
				if sc.mark[at] == placed {
					return errf(ReasonStalePlacement, f.Name, l, "block placed twice")
				}
				sc.mark[at] = placed
				got, size, err := pl.BlockSpanAt(at)
				if err != nil {
					return errf(ReasonUnplacedBlock, f.Name, l, "segment lists the block but the placement lost it")
				}
				b := f.Blocks[at]
				fall := ""
				if i+1 < len(seg.Labels) {
					fall = seg.Labels[i+1]
				}
				want := len(b.Instrs) + termSize(f, b, fall)
				if size != want {
					return errf(ReasonSegmentEscape, f.Name, l,
						"placed size %d instrs, body requires %d (block mutated after placement?)", size, want)
				}
				if got != addr {
					return errf(ReasonSegmentEscape, f.Name, l,
						"placed at %#x but contiguous packing puts it at %#x", got, addr)
				}
				if got%ib != 0 {
					return errf(ReasonMisaligned, f.Name, l, "block at %#x not %d-byte aligned", got, ib)
				}
				if size > 0 {
					spans = append(spans, span{got, got + uint64(size)*ib, f.Name, l})
				}
				addr += uint64(want) * ib
			}
		}
		for i, b := range f.Blocks {
			if sc.mark[ix.Pos(b.Label, i)] != placed {
				return errf(ReasonUnplacedBlock, f.Name, b.Label, "block missing from every segment")
			}
		}
	}
	// Ties sort by function then block for deterministic error messages on
	// exact-duplicate placements.
	slices.SortFunc(spans, func(a, b span) int {
		if c := cmp.Compare(a.lo, b.lo); c != 0 {
			return c
		}
		if c := strings.Compare(a.fn, b.fn); c != 0 {
			return c
		}
		return strings.Compare(a.bl, b.bl)
	})
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return errf(ReasonOverlap, spans[i].fn, spans[i].bl,
				"[%#x,%#x) overlaps %s.%s ending at %#x",
				spans[i].lo, spans[i].hi, spans[i-1].fn, spans[i-1].bl, spans[i-1].hi)
		}
	}
	return nil
}

// termSize recomputes the instruction count a terminator materializes to,
// given the physically-following label — an independent reimplementation
// of the placement logic, so a drifted placement cannot vouch for itself.
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
