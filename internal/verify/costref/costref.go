// Package costref is the reference replay of verify.Cost, for tests only:
// the straightforward map-based engine verify.Cost used before its per-set
// state became dense slices. It is deliberately unoptimized — every set's
// blocks and functions in a map, every block's history in a map — so that
// its answer is easy to check by reading. The differential test in
// internal/verify and the move-only fuzz target in internal/optimize hold
// verify.Cost to it field for field; nothing outside a test imports it.
package costref

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/verify"
)

// maxDepth bounds library-call expansion, as verify's lint does.
const maxDepth = 32

// maxLoopDepth caps the estimated loop-nesting depth, as verify.Cost does.
const maxLoopDepth = 3

type costRef struct {
	blk uint64
	fn  string
	w   float64
}

// loopDepths is verify.Cost's loop-nesting estimate: each hot back edge
// closes a loop over the index range between target and source, and a
// block's depth is the number of distinct-head ranges covering it.
func loopDepths(f *code.Function) []int {
	idx := make(map[string]int, len(f.Blocks))
	for i, b := range f.Blocks {
		idx[b.Label] = i
	}
	latch := map[int]int{}
	back := func(from int, label string) {
		if label == "" {
			return
		}
		to, ok := idx[label]
		if !ok || to > from || f.Blocks[to].Kind.Outlinable() {
			return
		}
		if cur, ok := latch[to]; !ok || from > cur {
			latch[to] = from
		}
	}
	for i, b := range f.Blocks {
		if b.Kind.Outlinable() {
			continue
		}
		switch b.Term.Kind {
		case code.TermJump:
			back(i, b.Term.Then)
		case code.TermCond:
			back(i, b.Term.Then)
			back(i, b.Term.Else)
		}
	}
	depth := make([]int, len(f.Blocks))
	for to, from := range latch {
		for i := to; i <= from; i++ {
			if depth[i] < maxLoopDepth {
				depth[i]++
			}
		}
	}
	return depth
}

// Cost replays the latency path of p through a per-set LRU model of m's
// i-cache and returns the report verify.Cost must reproduce exactly.
func Cost(p *code.Program, spec verify.CostSpec, m arch.Machine) (*verify.CostReport, error) {
	g := verify.NewGeometry(m)
	setMask := uint64(g.Sets - 1)
	ib := uint64(m.InstrBytes)
	loopW := spec.LoopWeight
	if loopW == 0 {
		loopW = verify.DefaultLoopWeight
	}
	fnWeight := func(name string) float64 {
		if spec.FuncWeights == nil {
			return 1
		}
		if w, ok := spec.FuncWeights[name]; ok && w > 0 {
			return w
		}
		return 1
	}

	inLibrary := make(map[string]bool, len(spec.Library))
	for _, n := range spec.Library {
		inLibrary[n] = true
	}

	var refs []costRef
	var expand func(name string, depth int, callerW float64) error
	expand = func(name string, depth int, callerW float64) error {
		if depth > maxDepth {
			return fmt.Errorf("%s: library expansion exceeds depth %d", name, maxDepth)
		}
		f := p.Func(name)
		if f == nil {
			return fmt.Errorf("%s: path spec names unknown function", name)
		}
		pl := p.Placement(name)
		if pl == nil {
			return fmt.Errorf("%s: path function has no placement", name)
		}
		depths := loopDepths(f)
		base := callerW * fnWeight(name)
		for i, b := range f.Blocks {
			if b.Kind.Outlinable() {
				continue
			}
			w := base
			for d := 0; d < depths[i]; d++ {
				w *= loopW
			}
			addr, size, err := pl.BlockSpan(b.Label)
			if err != nil {
				return err
			}
			span := g.SpanBlocks(addr, addr+uint64(size)*ib)
			emit := func() {
				for _, bn := range span {
					refs = append(refs, costRef{blk: bn, fn: name, w: w})
				}
			}
			emit()
			for _, in := range b.Instrs {
				if in.Call() == "" || in.CallLoad || !inLibrary[in.Call()] {
					continue
				}
				if err := expand(in.Call(), depth+1, w); err != nil {
					return err
				}
				emit()
			}
		}
		return nil
	}
	for _, name := range spec.Path {
		if err := expand(name, 0, 1); err != nil {
			return nil, err
		}
	}

	rep := &verify.CostReport{}

	distinct := map[uint64]bool{}
	setBlocks := map[int]map[uint64]bool{}
	setFuncs := map[int]map[string]bool{}
	for _, r := range refs {
		distinct[r.blk] = true
		s := int(r.blk & setMask)
		if setBlocks[s] == nil {
			setBlocks[s] = map[uint64]bool{}
			setFuncs[s] = map[string]bool{}
		}
		setBlocks[s][r.blk] = true
		setFuncs[s][r.fn] = true
	}
	rep.PathBlocks = len(distinct)

	victimDiscount := 1.0
	if m.VictimEntries > 0 && m.BCacheHitCycles > 0 {
		victimDiscount = float64(m.VictimHitCycles) / float64(m.BCacheHitCycles)
	}
	var victimFIFO []uint64
	victimHolds := func(blk uint64) bool {
		for _, v := range victimFIFO {
			if v == blk {
				return true
			}
		}
		return false
	}
	victimPush := func(blk uint64) {
		if m.VictimEntries <= 0 {
			return
		}
		victimFIFO = append(victimFIFO, blk)
		if len(victimFIFO) > m.VictimEntries {
			victimFIFO = victimFIFO[1:]
		}
	}

	ways := make(map[int][]uint64, len(setBlocks))
	seen := map[uint64]bool{}
	replBySet := map[int]int{}
	evictedBy := map[uint64]string{}
	funcAgg := map[string]*verify.FuncCost{}
	pairAgg := map[[2]string]*verify.PairCost{}
	for _, r := range refs {
		s := int(r.blk & setMask)
		w := ways[s]
		hit := -1
		for i, bn := range w {
			if bn == r.blk {
				hit = i
				break
			}
		}
		if hit >= 0 {
			copy(w[1:hit+1], w[:hit])
			w[0] = r.blk
			continue
		}
		if seen[r.blk] {
			rep.PredictedRepl++
			replBySet[s]++
			cost := r.w
			if victimHolds(r.blk) {
				rep.VictimRescued++
				cost *= victimDiscount
			}
			rep.Total += cost
			fc := funcAgg[r.fn]
			if fc == nil {
				fc = &verify.FuncCost{Func: r.fn}
				funcAgg[r.fn] = fc
			}
			fc.ReplMisses++
			fc.Cost += cost
			if ev, ok := evictedBy[r.blk]; ok {
				key := [2]string{r.fn, ev}
				pc := pairAgg[key]
				if pc == nil {
					pc = &verify.PairCost{Victim: r.fn, Evictor: ev}
					pairAgg[key] = pc
				}
				pc.ReplMisses++
				pc.Cost += cost
			}
		}
		seen[r.blk] = true
		if len(w) < g.Assoc {
			w = append(w, 0)
		} else {
			victim := w[len(w)-1]
			evictedBy[victim] = r.fn
			victimPush(victim)
		}
		copy(w[1:], w)
		w[0] = r.blk
		ways[s] = w
	}

	for _, fns := range setFuncs {
		var hasPath, hasLib bool
		for fn := range fns {
			if p.Func(fn).Class == code.ClassLibrary {
				hasLib = true
			} else {
				hasPath = true
			}
		}
		if hasPath && hasLib {
			rep.PartitionViolations++
		}
	}

	type placedKind struct {
		addr uint64
		cold bool
	}
	var order []placedKind
	for _, name := range append(append([]string(nil), spec.Path...), spec.Library...) {
		f := p.Func(name)
		if f == nil {
			continue
		}
		pl := p.Placement(name)
		if pl == nil {
			return nil, fmt.Errorf("%s: path function has no placement", name)
		}
		for _, b := range f.Blocks {
			addr, size, err := pl.BlockSpan(b.Label)
			if err != nil {
				return nil, err
			}
			if size == 0 {
				continue
			}
			order = append(order, placedKind{addr: addr, cold: b.Kind.Outlinable()})
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].addr < order[j].addr })
	flips := 0
	for i := 1; i < len(order); i++ {
		if order[i].cold != order[i-1].cold {
			flips++
		}
	}
	if flips > 1 {
		rep.HotColdInterleave = flips - 1
	}

	for s, n := range replBySet {
		var fns []string
		for fn := range setFuncs[s] {
			fns = append(fns, fn)
		}
		sort.Strings(fns)
		rep.Conflicts = append(rep.Conflicts, verify.SetConflict{
			Set:        s,
			Blocks:     len(setBlocks[s]),
			ReplMisses: n,
			Funcs:      fns,
		})
	}
	sort.Slice(rep.Conflicts, func(i, j int) bool {
		a, b := rep.Conflicts[i], rep.Conflicts[j]
		if a.ReplMisses != b.ReplMisses {
			return a.ReplMisses > b.ReplMisses
		}
		return a.Set < b.Set
	})

	for _, fc := range funcAgg {
		rep.ByFunc = append(rep.ByFunc, *fc)
	}
	sort.Slice(rep.ByFunc, func(i, j int) bool {
		a, b := rep.ByFunc[i], rep.ByFunc[j]
		if a.Cost != b.Cost {
			return a.Cost > b.Cost
		}
		return a.Func < b.Func
	})
	for _, pc := range pairAgg {
		rep.Pairs = append(rep.Pairs, *pc)
	}
	sort.Slice(rep.Pairs, func(i, j int) bool {
		a, b := rep.Pairs[i], rep.Pairs[j]
		if a.Cost != b.Cost {
			return a.Cost > b.Cost
		}
		if a.Victim != b.Victim {
			return a.Victim < b.Victim
		}
		return a.Evictor < b.Evictor
	})
	return rep, nil
}
