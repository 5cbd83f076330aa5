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
//
// The passes share one reading of a program: each function's block
// index is resolved once and its call sites are gathered once, by
// whichever pass needs them first. Candidate, the layout search's gate,
// runs the well-formedness pass, the clone proof and the cost replay over
// a single walk of the instructions.
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
	defer sc.release()
	sc.begin(p)
	return sc.wellFormed(p, m)
}

// Candidate is the layout search's gate on one placed image p: Program,
// CheckClone(ref, p, nil) and Cost, made over one reading of p. Every
// instruction of p is read once, both to compare it with ref's and to
// gather its function's call sites, which the call graph and the cost
// replay then read; each function's block index is resolved once; the
// placement check and the cost replay walk the address order FinishText
// kept. The verdicts are those of running the three in sequence:
// wf is Program's failure (it wins when the proof fails too) or Cost's,
// eq is the proof's, and rep is Cost's report when both are nil.
func Candidate(ref, p *code.Program, spec CostSpec, m arch.Machine) (rep *CostReport, wf, eq error) {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	sc.begin(p)
	eq = sc.read(ref, p, nil, true)
	if wf = sc.wellFormed(p, m); wf != nil {
		return nil, wf, nil
	}
	if eq != nil {
		return nil, nil, eq
	}
	if rep, wf = sc.cost(p, spec, m); wf != nil {
		return nil, wf, nil
	}
	return rep, nil, nil
}

// wellFormed is Program's three passes over the program begin read.
func (sc *scratch) wellFormed(p *code.Program, m arch.Machine) error {
	for k := 0; k < p.NumFuncs(); k++ {
		if err := sc.checkFunc(p.FuncAt(k), sc.index(k)); err != nil {
			return err
		}
	}
	if err := sc.checkCallGraph(p); err != nil {
		return err
	}
	return sc.checkPlacement(p, m)
}

// scratch is the reusable state of one reading of a program: what the
// well-formedness pass, the move-only proof and the cost replay share,
// and the well-formedness pass's own marks. Nothing in it outlives the
// call that filled it; begin resets it for the next program. Its marks
// are stamped rather than cleared: a mark is set when it equals the
// current stamp, and taking a new stamp clears every mark at once.
type scratch struct {
	p *code.Program
	// ix holds each function's block index by link position, resolved on
	// first use.
	ix []*code.BlockIndex
	// sites holds every gathered call site; function k's are
	// sites[siteLo[k]:siteHi[k]], and siteHi[k] is -1 until they are
	// gathered.
	sites          []callSite
	siteLo, siteHi []int32
	// at is the link position of each function id.
	at []int32

	stamp uint32
	// mark is indexed by block position within one function.
	mark  []uint32
	stack []int32
	// adj lists each function's distinct callees by link position, in
	// first-call order; function k's are adj[adjEnd[k-1]:adjEnd[k]].
	adj, adjEnd []int32
	color       []uint8
	spans       []span
	// The placement pass's verified blocks, by slot: function k's
	// placement slot j is slotBase[k]+j. A slot is marked when its block
	// passed the packing check and is not empty.
	slotBase  []int32
	slotAddr  []uint64
	slotSize  []int32
	slotMark  []uint32
	slotStamp uint32
}

// callSite is one call instruction: its block's position in Blocks, its
// position in that block's body, its callee id and whether it is the
// call sequence's address load.
type callSite struct {
	blk, instr, callee int32
	load               bool
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// begin starts a reading of p: no index resolved, no call site gathered.
func (sc *scratch) begin(p *code.Program) {
	nf := p.NumFuncs()
	sc.p = p
	sc.ix = resized(sc.ix, nf)
	clear(sc.ix)
	sc.sites = sc.sites[:0]
	sc.siteLo, sc.siteHi = resized(sc.siteLo, nf), resized(sc.siteHi, nf)
	for k := range sc.siteHi {
		sc.siteHi[k] = -1
	}
	maxID := int32(0)
	for k := 0; k < nf; k++ {
		maxID = max(maxID, p.FuncAt(k).ID())
	}
	sc.at = resized(sc.at, int(maxID)+1)
	for k := 0; k < nf; k++ {
		sc.at[p.FuncAt(k).ID()] = int32(k)
	}
}

// release returns sc to the pool without the program it read, so that
// an idle pool keeps no image alive.
func (sc *scratch) release() {
	sc.p = nil
	clear(sc.ix[:cap(sc.ix)])
	scratchPool.Put(sc)
}

// index returns the block index of the function at link position k.
func (sc *scratch) index(k int) *code.BlockIndex {
	if sc.ix[k] == nil {
		sc.ix[k] = sc.p.FuncAt(k).Index()
	}
	return sc.ix[k]
}

// callSites returns the call sites of the function at link position k in
// block and body order, gathering them unless a read already did.
func (sc *scratch) callSites(k int) []callSite {
	if sc.siteHi[k] < 0 {
		sc.readFunc(k, nil, sc.p.FuncAt(k), nil, true)
	}
	return sc.sites[sc.siteLo[k]:sc.siteHi[k]]
}

// read is the one pass over after's instructions. With gather set it
// gathers every function's call sites; with before non-nil it proves
// after move-only equivalent to before, as CheckClone does under the
// specialized set spec, and returns the proof's first failure. Either
// alone reads only what it needs.
func (sc *scratch) read(before, after *code.Program, spec map[string]bool, gather bool) error {
	var eq error
	same := false
	if before != nil {
		eq = checkFuncSets(before, after)
		same = eq == nil && sameOrder(before, after)
	}
	for k := 0; k < after.NumFuncs(); k++ {
		var bf *code.Function
		if same && eq == nil {
			bf = before.FuncAt(k)
		}
		if bf == nil && !gather {
			break
		}
		if err := sc.readFunc(k, bf, after.FuncAt(k), spec, gather); eq == nil {
			eq = err
		}
	}
	if before != nil && eq == nil && !same {
		// The same functions in another link order: the proof walks
		// before's order, as CheckClone always has.
		for fi := 0; fi < before.NumFuncs() && eq == nil; fi++ {
			bf := before.FuncAt(fi)
			eq = sc.readFunc(-1, bf, after.Func(bf.Name), spec, false)
		}
	}
	return eq
}

// readFunc reads af, the function at link position k: with gather set it
// records af's call sites, and with bf non-nil it proves af bf moved
// only, returning the first failure. A failure stops the comparison, not
// the gathering.
func (sc *scratch) readFunc(k int, bf, af *code.Function, spec map[string]bool, gather bool) error {
	if gather {
		sc.siteLo[k] = int32(len(sc.sites))
	}
	var err error
	specialized := false
	if bf != nil {
		err = sameShape(bf, af)
		specialized = spec[bf.Name]
	}
	for i, ab := range af.Blocks {
		var bb *code.Block
		if bf != nil && err == nil {
			bb = bf.Blocks[i]
		}
		if bb == nil && !gather {
			break
		}
		var ref []code.Instr
		cmp := bb != nil && !specialized && len(bb.Instrs) == len(ab.Instrs)
		if cmp {
			ref = bb.Instrs
		}
		same := sc.readBlock(int32(i), ab.Instrs, ref, cmp, gather)
		if bb == nil {
			continue
		}
		if ab.Label != bb.Label {
			err = errf(ReasonBlockSetChanged, bf.Name, bb.Label,
				"position %d holds %q, expected %q", i, ab.Label, bb.Label)
			continue
		}
		if !specialized {
			err = blockVerdict(bf.Name, bb, ab, same)
			continue
		}
		if err = blockVerdict(bf.Name, bb, ab, true); err == nil {
			err = checkSpecializedBlock(bf.Name, bb, ab, spec)
		}
	}
	if gather {
		sc.siteHi[k] = int32(len(sc.sites))
	}
	return err
}

// readBlock reads one block body: with gather set it records its call
// sites as block blk's, and with cmp set it reports whether the body
// equals ref, instruction for instruction, in the same loop.
func (sc *scratch) readBlock(blk int32, body, ref []code.Instr, cmp, gather bool) bool {
	if !gather {
		return cmp && sameInstrs(ref, body)
	}
	same := cmp
	if cmp {
		ref = ref[:len(body)]
	}
	for j := range body {
		in := &body[j]
		if same && !sameInstr(&ref[j], in) {
			same = false
		}
		if in.IsCall() {
			sc.sites = append(sc.sites, callSite{blk: blk, instr: int32(j), callee: in.CalleeID(), load: in.CallLoad})
		}
	}
	return same
}

// newStamp starts a fresh set of marks over n slots.
func (sc *scratch) newStamp(n int) uint32 {
	if sc.stamp++; sc.stamp == 0 || len(sc.mark) < n {
		sc.mark = make([]uint32, max(n, cap(sc.mark)))
		sc.stamp = 1
	}
	return sc.stamp
}

// checkFunc verifies one function's CFG, given its block index:
// structure, terminator targets, and reachability of mainline blocks.
func (sc *scratch) checkFunc(f *code.Function, ix *code.BlockIndex) error {
	if len(f.Blocks) == 0 {
		return errf(ReasonNoBlocks, f.Name, "", "function has no blocks")
	}
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
	// Each function's distinct callees by link position.
	adj, adjEnd := sc.adj[:0], sc.adjEnd[:0]
	for k := 0; k < p.NumFuncs(); k++ {
		f := p.FuncAt(k)
		start := len(adj)
		for _, s := range sc.callSites(k) {
			g := p.FuncByID(s.callee)
			if g == nil {
				b := f.Blocks[s.blk]
				return errf(ReasonUnresolvedCall, f.Name, b.Label, "call to unknown function %q", b.Instrs[s.instr].Call())
			}
			c := sc.at[g.ID()]
			if !containsID(adj[start:], c) {
				adj = append(adj, c)
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

// span is one placed block in overlapBySort's check.
type span struct {
	lo, hi uint64
	fn, bl string
}

// checkPlacement verifies the layout of every function: all blocks placed
// exactly once, segment packing contiguous and instruction-aligned, block
// sizes consistent with the bodies they claim to hold, and no two placed
// blocks overlapping anywhere in the image. It recomputes the packing from
// the segments and each block's body and compares the result with the
// placement's own addresses and sizes, then walks the program's address
// order (code.Program.TextOrder) to find overlaps without sorting.
func (sc *scratch) checkPlacement(p *code.Program, m arch.Machine) error {
	ib := uint64(m.InstrBytes)
	nonEmpty, err := sc.checkPacking(p, ib)
	if err != nil {
		return err
	}
	if sc.walkText(p, p.TextOrder(), ib, nonEmpty) {
		return nil
	}
	return sc.overlapBySort(p, ib)
}

// checkPacking is checkPlacement up to the overlap check. It records the
// address and size of every non-empty block it verified, by slot, and
// returns how many there are.
func (sc *scratch) checkPacking(p *code.Program, ib uint64) (int, error) {
	nf := p.NumFuncs()
	sc.slotBase = resized(sc.slotBase, nf)
	slots := 0
	for k := 0; k < nf; k++ {
		sc.slotBase[k] = int32(slots)
		slots += len(p.FuncAt(k).Blocks)
	}
	if sc.slotStamp++; sc.slotStamp == 0 || len(sc.slotMark) < slots {
		n := max(slots, cap(sc.slotMark))
		sc.slotMark, sc.slotAddr, sc.slotSize = make([]uint32, n), make([]uint64, n), make([]int32, n)
		sc.slotStamp = 1
	}
	nonEmpty := 0
	for k := 0; k < nf; k++ {
		f := p.FuncAt(k)
		pl := p.PlacementOf(f)
		if pl == nil {
			return 0, errf(ReasonUnplacedFunc, f.Name, "", "function has no placement")
		}
		ix := sc.index(k)
		placed := sc.newStamp(len(f.Blocks))
		for _, seg := range pl.Segments {
			if seg.Addr%ib != 0 {
				return 0, errf(ReasonMisaligned, f.Name, "", "segment at %#x not %d-byte aligned", seg.Addr, ib)
			}
			addr := seg.Addr
			hint := -1
			for i, l := range seg.Labels {
				at := ix.Pos(l, hint)
				if at < 0 {
					return 0, errf(ReasonStalePlacement, f.Name, l, "placement names a block the function no longer has")
				}
				hint = at + 1
				if sc.mark[at] == placed {
					return 0, errf(ReasonStalePlacement, f.Name, l, "block placed twice")
				}
				sc.mark[at] = placed
				got, size, err := pl.BlockSpanAt(at)
				if err != nil {
					return 0, errf(ReasonUnplacedBlock, f.Name, l, "segment lists the block but the placement lost it")
				}
				b := f.Blocks[at]
				fall := ""
				if i+1 < len(seg.Labels) {
					fall = seg.Labels[i+1]
				}
				want := len(b.Instrs) + termSize(f, b, fall)
				if size != want {
					return 0, errf(ReasonSegmentEscape, f.Name, l,
						"placed size %d instrs, body requires %d (block mutated after placement?)", size, want)
				}
				if got != addr {
					return 0, errf(ReasonSegmentEscape, f.Name, l,
						"placed at %#x but contiguous packing puts it at %#x", got, addr)
				}
				if got%ib != 0 {
					return 0, errf(ReasonMisaligned, f.Name, l, "block at %#x not %d-byte aligned", got, ib)
				}
				if size > 0 {
					nonEmpty++
					if j := pl.Slot(at); j < len(f.Blocks) {
						g := int(sc.slotBase[k]) + j
						sc.slotMark[g], sc.slotAddr[g], sc.slotSize[g] = sc.slotStamp, got, int32(size)
					}
				}
				addr += uint64(want) * ib
			}
		}
		for i, b := range f.Blocks {
			if sc.mark[ix.Pos(b.Label, i)] != placed {
				return 0, errf(ReasonUnplacedBlock, f.Name, b.Label, "block missing from every segment")
			}
		}
	}
	return nonEmpty, nil
}

// walkText reports whether text, p's address order, proves that no two
// of the blocks checkPacking verified overlap: it must name each of the
// nonEmpty verified non-empty blocks exactly once, at the address and
// size verified, in ascending order with each block starting at or after
// the end of the one before. A block named twice would start before its
// own end, so the ascending check and the count make "exactly once". A
// false answer proves nothing either way; the caller then decides by
// sorting.
func (sc *scratch) walkText(p *code.Program, text []code.TextBlock, ib uint64, nonEmpty int) bool {
	if len(text) != nonEmpty {
		return false
	}
	end := uint64(0)
	for i := range text {
		t := &text[i]
		if int(t.Func) >= p.NumFuncs() || int(t.Slot) >= len(p.FuncAt(int(t.Func)).Blocks) {
			return false
		}
		g := int(sc.slotBase[t.Func]) + int(t.Slot)
		if sc.slotMark[g] != sc.slotStamp || sc.slotAddr[g] != t.Addr || sc.slotSize[g] != t.Size || t.Addr < end {
			return false
		}
		end = t.Addr + uint64(t.Size)*ib
	}
	return true
}

// overlapBySort finds an overlap among the blocks checkPlacement verified
// by sorting them: it names the later-starting block of the first
// overlapping pair, ties broken by function then block name so that the
// message is deterministic on exact-duplicate placements.
func (sc *scratch) overlapBySort(p *code.Program, ib uint64) error {
	spans := sc.spans[:0]
	defer func() { sc.spans = spans[:0] }()
	for k := 0; k < p.NumFuncs(); k++ {
		f := p.FuncAt(k)
		pl := p.PlacementOf(f)
		for i, b := range f.Blocks {
			if addr, size, err := pl.BlockSpanAt(i); err == nil && size > 0 {
				spans = append(spans, span{addr, addr + uint64(size)*ib, f.Name, b.Label})
			}
		}
	}
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
