package verify

import (
	"fmt"
	"strings"

	"repro/internal/code"
)

// sameInstr compares the semantic fields of two instructions. The
// linker-private static-address annotations are deliberately excluded:
// they differ between an unlinked transform input and a linked output
// without changing what the instruction does. Operands and callees
// compare by interned id, which names the same symbol in every program.
func sameInstr(a, b *code.Instr) bool {
	return a.Op == b.Op && a.Off == b.Off &&
		a.CallLoad == b.CallLoad && a.Prologue == b.Prologue &&
		a.DataID() == b.DataID() && a.CalleeID() == b.CalleeID()
}

func sameInstrs(a, b []code.Instr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameInstr(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// checkFuncSets verifies both programs define exactly the same functions.
// It names the first function of after's link order that before lacks,
// else the first of before's that after lacks.
func checkFuncSets(before, after *code.Program) error {
	if sameOrder(before, after) {
		return nil
	}
	for i := 0; i < after.NumFuncs(); i++ {
		if n := after.FuncAt(i).Name; before.Func(n) == nil {
			return errf(ReasonFuncSetChanged, n, "", "function appeared during a move-only transform")
		}
	}
	for i := 0; i < before.NumFuncs(); i++ {
		if n := before.FuncAt(i).Name; after.Func(n) == nil {
			return errf(ReasonFuncSetChanged, n, "", "function disappeared during a move-only transform")
		}
	}
	return nil
}

// sameOrder reports whether both programs list the same function names in
// the same link order, the common case of an image cloned from the other.
func sameOrder(before, after *code.Program) bool {
	if before.NumFuncs() != after.NumFuncs() {
		return false
	}
	for i := 0; i < before.NumFuncs(); i++ {
		if before.FuncAt(i).Name != after.FuncAt(i).Name {
			return false
		}
	}
	return true
}

// counterpart returns after's function of before's i-th function's name:
// the function at the same link position when the orders agree.
func counterpart(after *code.Program, bf *code.Function, i int, same bool) *code.Function {
	if same {
		return after.FuncAt(i)
	}
	return after.Func(bf.Name)
}

// sameBlock verifies a move-only transform left one block untouched.
func sameBlock(fn string, b, a *code.Block) error {
	return blockVerdict(fn, b, a, sameInstrs(b.Instrs, a.Instrs))
}

// blockVerdict is sameBlock with the instruction comparison already made:
// same reports whether the two bodies are equal.
func blockVerdict(fn string, b, a *code.Block, same bool) error {
	if b.Kind != a.Kind {
		return errf(ReasonBlockChanged, fn, b.Label, "kind %v became %v", b.Kind, a.Kind)
	}
	if b.Term != a.Term {
		return errf(ReasonBlockChanged, fn, b.Label, "terminator changed")
	}
	if !same {
		return errf(ReasonBlockChanged, fn, b.Label, "instruction sequence changed")
	}
	return nil
}

// sameShape verifies a move-only transform kept a function's class,
// epilogue and block count.
func sameShape(bf, af *code.Function) error {
	if bf.Class != af.Class {
		return errf(ReasonBlockChanged, bf.Name, "", "bipartite class changed")
	}
	if !sameInstrs(bf.Epilogue, af.Epilogue) {
		return errf(ReasonBlockChanged, bf.Name, "", "epilogue changed")
	}
	if len(af.Blocks) != len(bf.Blocks) {
		return errf(ReasonBlockSetChanged, bf.Name, "",
			"%d blocks became %d", len(bf.Blocks), len(af.Blocks))
	}
	return nil
}

// CheckOutline proves statically that after is before with (at most) the
// conservative outliner applied: the same functions, the same block
// multiset per function, every block byte-identical, and each function's
// block order equal to the original's mainline blocks (in original
// relative order) followed by its outlinable blocks (in original relative
// order). Placement is not compared — outlining's whole point is to change
// it.
func CheckOutline(before, after *code.Program) error {
	if err := checkFuncSets(before, after); err != nil {
		return err
	}
	same := sameOrder(before, after)
	for fi := 0; fi < before.NumFuncs(); fi++ {
		bf := before.FuncAt(fi)
		af := counterpart(after, bf, fi, same)
		if err := sameShape(bf, af); err != nil {
			return err
		}
		var want []string
		for _, b := range bf.Blocks {
			if !b.Kind.Outlinable() {
				want = append(want, b.Label)
			}
		}
		for _, b := range bf.Blocks {
			if b.Kind.Outlinable() {
				want = append(want, b.Label)
			}
		}
		for i, ab := range af.Blocks {
			if ab.Label != want[i] {
				return errf(ReasonOrderViolation, bf.Name, ab.Label,
					"position %d holds %q, hot-then-cold order requires %q", i, ab.Label, want[i])
			}
			bb := bf.Block(ab.Label)
			if bb == nil {
				return errf(ReasonBlockSetChanged, bf.Name, ab.Label, "block appeared during outlining")
			}
			if err := sameBlock(bf.Name, bb, ab); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckClone proves statically that after is before with (at most)
// cloning's code specialization applied to the named functions: block
// order, kinds and terminators unchanged everywhere; functions outside the
// specialized set byte-identical; and inside it, each block's instruction
// sequence a subsequence of the original where every dropped instruction
// is either the block's first prologue instruction or the address-
// materializing load of a call to another specialized function — exactly
// the two deletions §3.2's specialization licenses.
func CheckClone(before, after *code.Program, specialized []string) error {
	var spec map[string]bool
	if len(specialized) > 0 {
		spec = make(map[string]bool, len(specialized))
		for _, n := range specialized {
			spec[n] = true
		}
	}
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	return sc.read(before, after, spec, false)
}

// checkSpecializedBlock walks a specialized block against its original,
// admitting only the two legal drops.
func checkSpecializedBlock(fn string, before, after *code.Block, spec map[string]bool) error {
	i := 0
	droppedPrologue := false
	for k := range before.Instrs {
		in := &before.Instrs[k]
		if i < len(after.Instrs) && sameInstr(in, &after.Instrs[i]) {
			i++
			continue
		}
		switch {
		case in.Prologue && !droppedPrologue:
			droppedPrologue = true
		case in.CallLoad && spec[in.Call()]:
		default:
			return errf(ReasonIllegalDrop, fn, before.Label,
				"instruction %v (%s) dropped without a specialization license", in.Op, in.Data())
		}
	}
	if i != len(after.Instrs) {
		return errf(ReasonIllegalDrop, fn, before.Label,
			"specialized block has %d unexplained trailing instructions", len(after.Instrs)-i)
	}
	return nil
}

// CheckInline proves statically that after's root function is
// path-equivalent to before's root with every call to an inlinable
// function expanded: a bisimulation walks both sides over all branch
// outcomes, requiring identical observable behaviour — the same
// instruction stream (modulo the prologues, epilogues and call sequences
// inlining legally deletes), the same conditions at every branch point,
// and a return exactly where the original path returns. Functions other
// than root must be untouched.
func CheckInline(before, after *code.Program, root string, inlinable []string) error {
	bf, af := before.Func(root), after.Func(root)
	if bf == nil || af == nil {
		return errf(ReasonPathDivergence, root, "", "root missing from a program")
	}
	inSet := make(map[string]bool, len(inlinable))
	for _, n := range inlinable {
		if before.Func(n) == nil {
			return errf(ReasonUnresolvedCall, root, "", "inlinable function %q not in program", n)
		}
		inSet[n] = true
	}
	// Inlining a recursive path would diverge; reject up front so the
	// bisimulation's stack is bounded.
	if cyc := inlineCycle(before, root, inSet); cyc != nil {
		return errf(ReasonRecursion, cyc[0], "", "inlinable call cycle %v", cyc)
	}
	// Functions other than root may only be left alone.
	for _, f := range before.Funcs() {
		if f.Name == root {
			continue
		}
		g := after.Func(f.Name)
		if g == nil {
			return errf(ReasonFuncSetChanged, f.Name, "", "function disappeared during inlining")
		}
		if len(f.Blocks) != len(g.Blocks) {
			return errf(ReasonBlockSetChanged, f.Name, "", "non-root function changed during inlining")
		}
		for i := range f.Blocks {
			if f.Blocks[i].Label != g.Blocks[i].Label {
				return errf(ReasonBlockSetChanged, f.Name, g.Blocks[i].Label, "non-root function reordered during inlining")
			}
			if err := sameBlock(f.Name, f.Blocks[i], g.Blocks[i]); err != nil {
				return err
			}
		}
	}
	if !sameInstrs(bf.Epilogue, af.Epilogue) {
		return errf(ReasonPathDivergence, root, "", "root epilogue changed")
	}
	bs := &bisim{before: before, inSet: inSet, seen: map[string]bool{}}
	return bs.visit(
		[]inlFrame{{fn: bf, blk: bf.Blocks[0]}},
		inlFrame{fn: af, blk: af.Blocks[0]},
	)
}

// inlineCycle finds a call cycle reachable from root through inlinable
// functions only, or nil.
func inlineCycle(p *code.Program, root string, inSet map[string]bool) []string {
	g := &CallGraph{Callees: map[string][]string{}, order: []string{root}}
	add := func(name string) {
		var out []string
		for _, c := range p.Func(name).Callees() {
			if inSet[c] {
				out = append(out, c)
			}
		}
		g.Callees[name] = out
	}
	add(root)
	for n := range inSet {
		g.order = append(g.order, n)
	}
	// Deterministic order beyond root is irrelevant for existence, but keep
	// the walk stable anyway.
	for _, n := range g.order[1:] {
		add(n)
	}
	return g.Cycle()
}

// inlFrame is one activation record of the bisimulation: a position inside
// one function's block list.
type inlFrame struct {
	fn  *code.Function
	blk *code.Block
	idx int
}

// event is one observable step of either side: an emitted instruction, a
// conditional branch (observable through its condition name), or the
// path's final return.
type event struct {
	kind byte // 'i' instruction, 'c' condition, 'r' return
	in   code.Instr
	cond string
}

func (e event) String() string {
	switch e.kind {
	case 'i':
		return fmt.Sprintf("instr %v %s", e.in.Op, e.in.Data())
	case 'c':
		return fmt.Sprintf("cond %q", e.cond)
	default:
		return "return"
	}
}

// maxSilentSteps bounds label-chasing between observables so an adversarial
// cycle of empty blocks cannot hang the checker.
const maxSilentSteps = 1 << 16

// bisim is the product automaton of the original callee chain (a frame
// stack over before) and the inlined root (a single frame). States are
// memoized, so loops in the models terminate the walk.
type bisim struct {
	before *code.Program
	inSet  map[string]bool
	seen   map[string]bool
}

// stepA advances the original side to its next observable, applying the
// inliner's semantics: prologues of inlined bodies and address loads of
// inlinable calls are silent, an inlinable jsr pushes the callee, and a
// return above the root pops without emitting the callee epilogue.
func (bs *bisim) stepA(st []inlFrame) (event, [][]inlFrame, error) {
	st = append([]inlFrame(nil), st...)
	for silent := 0; silent < maxSilentSteps; silent++ {
		top := &st[len(st)-1]
		if top.idx < len(top.blk.Instrs) {
			in := top.blk.Instrs[top.idx]
			inlined := len(st) > 1
			if inlined && in.Prologue {
				top.idx++
				continue
			}
			if in.IsCall() && bs.inSet[in.Call()] {
				top.idx++
				if in.CallLoad {
					continue
				}
				callee := bs.before.FuncByID(in.CalleeID())
				st = append(st, inlFrame{fn: callee, blk: callee.Blocks[0]})
				continue
			}
			top.idx++
			return event{kind: 'i', in: in}, [][]inlFrame{st}, nil
		}
		switch top.blk.Term.Kind {
		case code.TermJump:
			nb := top.fn.Block(top.blk.Term.Then)
			if nb == nil {
				return event{}, nil, errf(ReasonDanglingLabel, top.fn.Name, top.blk.Label,
					"jump to unknown label %q", top.blk.Term.Then)
			}
			top.blk, top.idx = nb, 0
		case code.TermCond:
			t := top.blk.Term
			thenSt := branchStack(st, top.fn.Block(t.Then))
			elseSt := branchStack(st, top.fn.Block(t.Else))
			if thenSt == nil || elseSt == nil {
				return event{}, nil, errf(ReasonDanglingLabel, top.fn.Name, top.blk.Label,
					"branch to unknown label (%q/%q)", t.Then, t.Else)
			}
			return event{kind: 'c', cond: t.Cond}, [][]inlFrame{thenSt, elseSt}, nil
		case code.TermRet:
			if len(st) > 1 {
				st = st[:len(st)-1] // inlined epilogue is deleted: silent pop
				continue
			}
			return event{kind: 'r'}, nil, nil
		default:
			return event{}, nil, errf(ReasonBadTerminator, top.fn.Name, top.blk.Label,
				"invalid terminator kind %d", top.blk.Term.Kind)
		}
	}
	return event{}, nil, errf(ReasonPathDivergence, st[0].fn.Name, "",
		"no observable progress after %d silent steps (empty-block cycle?)", maxSilentSteps)
}

// branchStack copies st with its top frame redirected to blk.
func branchStack(st []inlFrame, blk *code.Block) []inlFrame {
	if blk == nil {
		return nil
	}
	ns := append([]inlFrame(nil), st...)
	ns[len(ns)-1].blk, ns[len(ns)-1].idx = blk, 0
	return ns
}

// stepB advances the inlined side to its next observable. It is the plain
// single-function walk: every instruction is observable (the inliner
// already deleted what it was licensed to), unconditional jumps are
// silent.
func (bs *bisim) stepB(fr inlFrame) (event, []inlFrame, error) {
	for silent := 0; silent < maxSilentSteps; silent++ {
		if fr.idx < len(fr.blk.Instrs) {
			in := fr.blk.Instrs[fr.idx]
			fr.idx++
			return event{kind: 'i', in: in}, []inlFrame{fr}, nil
		}
		switch fr.blk.Term.Kind {
		case code.TermJump:
			nb := fr.fn.Block(fr.blk.Term.Then)
			if nb == nil {
				return event{}, nil, errf(ReasonDanglingLabel, fr.fn.Name, fr.blk.Label,
					"jump to unknown label %q", fr.blk.Term.Then)
			}
			fr.blk, fr.idx = nb, 0
		case code.TermCond:
			t := fr.blk.Term
			tb, eb := fr.fn.Block(t.Then), fr.fn.Block(t.Else)
			if tb == nil || eb == nil {
				return event{}, nil, errf(ReasonDanglingLabel, fr.fn.Name, fr.blk.Label,
					"branch to unknown label (%q/%q)", t.Then, t.Else)
			}
			return event{kind: 'c', cond: t.Cond},
				[]inlFrame{{fn: fr.fn, blk: tb}, {fn: fr.fn, blk: eb}}, nil
		case code.TermRet:
			return event{kind: 'r'}, nil, nil
		default:
			return event{}, nil, errf(ReasonBadTerminator, fr.fn.Name, fr.blk.Label,
				"invalid terminator kind %d", fr.blk.Term.Kind)
		}
	}
	return event{}, nil, errf(ReasonPathDivergence, fr.fn.Name, "",
		"no observable progress after %d silent steps (empty-block cycle?)", maxSilentSteps)
}

// visit explores one product state; memoization makes loops terminate.
func (bs *bisim) visit(aSt []inlFrame, bFr inlFrame) error {
	key := stackKey(aSt) + "|" + frameKey(bFr)
	if bs.seen[key] {
		return nil
	}
	bs.seen[key] = true

	evA, nextA, err := bs.stepA(aSt)
	if err != nil {
		return err
	}
	evB, nextB, err := bs.stepB(bFr)
	if err != nil {
		return err
	}
	if evA.kind != evB.kind ||
		(evA.kind == 'i' && !sameInstr(&evA.in, &evB.in)) ||
		(evA.kind == 'c' && evA.cond != evB.cond) {
		return errf(ReasonPathDivergence, bFr.fn.Name, bFr.blk.Label,
			"original path observes [%v], inlined path observes [%v]", evA, evB)
	}
	switch evA.kind {
	case 'r':
		return nil
	case 'i':
		return bs.visit(nextA[0], nextB[0])
	default: // 'c': both arms must stay equivalent
		if err := bs.visit(nextA[0], nextB[0]); err != nil {
			return err
		}
		return bs.visit(nextA[1], nextB[1])
	}
}

func stackKey(st []inlFrame) string {
	parts := make([]string, len(st))
	for i, fr := range st {
		parts[i] = frameKey(fr)
	}
	return strings.Join(parts, "/")
}

func frameKey(fr inlFrame) string {
	return fmt.Sprintf("%s:%s:%d", fr.fn.Name, fr.blk.Label, fr.idx)
}
