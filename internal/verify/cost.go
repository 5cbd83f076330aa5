package verify

import (
	"sort"

	"repro/internal/arch"
	"repro/internal/code"
)

// CostSpec parameterizes the static layout cost engine: the latency path to
// walk (PathSpec) plus the edge-frequency model that turns each predicted
// replacement miss into a weighted cost. The zero frequency model (nil
// FuncWeights, zero LoopWeight) weighs every function equally and every
// loop level at DefaultLoopWeight, so Cost degenerates to the lint's plain
// miss count — a tested invariant.
type CostSpec struct {
	PathSpec
	// FuncWeights scales each function's reference frequency — how many
	// times per roundtrip its path blocks are fetched. Functions absent
	// from the map (or the whole map when nil) weigh 1. Seed it from a
	// dynamic profile via optimize.WeightsFromProfile, or from the
	// invocation-count hints the micro-positioning layout already uses.
	FuncWeights map[string]float64
	// LoopWeight multiplies a block's weight once per loop-nesting level,
	// estimated from the CFG's back edges (a terminator targeting an
	// earlier block of the same function). 0 selects DefaultLoopWeight.
	LoopWeight float64
}

// DefaultLoopWeight is the per-nesting-level frequency multiplier used when
// CostSpec.LoopWeight is zero: a loop body is assumed to run this many
// times per entry, the classic static-profile heuristic.
const DefaultLoopWeight = 8

// FuncCost attributes a share of the predicted cost to one function: the
// replacement misses of its own blocks (the refetches it suffers, not the
// evictions it causes).
type FuncCost struct {
	// Func is the function whose block was refetched.
	Func string
	// ReplMisses counts its predicted replacement misses.
	ReplMisses int
	// Cost is the frequency-weighted sum of those misses.
	Cost float64
}

// PairCost attributes predicted cost to one (victim, evictor) conflict
// pair: Victim's block was evicted by a fetch from Evictor and had to be
// fetched again. The pair list names exactly which co-placements a layout
// change would have to separate.
type PairCost struct {
	// Victim is the function whose block was refetched.
	Victim string
	// Evictor is the function whose fetch evicted it.
	Evictor string
	// ReplMisses counts the pair's predicted replacement misses.
	ReplMisses int
	// Cost is the frequency-weighted sum of those misses.
	Cost float64
}

// CostReport is the cost engine's verdict on one placed program: the lint's
// miss-count Report plus the frequency-weighted total and its per-function
// and per-conflict-pair attribution.
type CostReport struct {
	Report
	// Total is the frequency-weighted predicted replacement cost of one
	// path traversal — the search objective the layout optimizer
	// minimises. With uniform weights and a loop-free path it equals
	// float64(PredictedRepl).
	Total float64
	// VictimRescued counts predicted replacement misses whose block was
	// still resident in the machine's victim buffer; they stay in
	// PredictedRepl (the simulator counts them as misses too) but are
	// discounted in Total by the victim-hit/board-cache latency ratio.
	VictimRescued int
	// ByFunc ranks the per-function cost attribution, worst first.
	ByFunc []FuncCost
	// Pairs ranks the per-conflict-pair attribution, worst first.
	Pairs []PairCost
}

// costBlock is the replay state of one distinct i-cache block on the path.
type costBlock struct {
	// set is the block's cache set.
	set int32
	// fetched marks a block the replay has already missed on once, so a
	// later miss on it is a replacement miss, not its cold fetch.
	fetched bool
	// evictor is the function whose fetch last evicted the block, or -1.
	evictor int32
}

// costFunc is one function the path expansion reached, resolved once.
type costFunc struct {
	f      *code.Function
	pl     *code.Placement
	depths []int
	// ids holds, per block, the ids of the cache blocks it touches, filled
	// on the block's first emission so that re-expanding a library helper
	// costs no map lookups.
	ids [][]int32
}

// maxLoopDepth caps the estimated loop-nesting depth: the frequency model
// multiplies by LoopWeight per level, so an unbounded estimate on a wild
// CFG would blow the objective up instead of ranking layouts.
const maxLoopDepth = 3

// loopDepths estimates each block's loop-nesting depth from the function's
// CFG: every terminator targeting an earlier (or the same) block in
// f.Blocks order closes a loop whose body is the index range between target
// and source, and a block's depth is the number of such distinct-head
// ranges covering it, capped at maxLoopDepth. Only edges between hot
// blocks count: a genuine loop has a hot head and a hot latch, while the
// outlined cold blocks re-outlining appends after the mainline jump *back*
// into it to resume — exactly the shape that would read as a huge false
// loop. The heuristic is exact for the builder's reducible counted loops
// and conservative for anything wilder.
func loopDepths(f *code.Function) []int {
	idx := make(map[string]int, len(f.Blocks))
	for i, b := range f.Blocks {
		idx[b.Label] = i
	}
	// Widest range per head, so parallel latches of one loop do not stack.
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

// Cost predicts the frequency-weighted i-cache replacement cost of the
// latency path through p on machine m, from placed addresses alone. It is
// the lint's static replay — the same block-reference expansion, per-set
// LRU model and miss taxonomy (see Lint) — promoted to a whole-program cost
// engine: every reference carries an estimated fetch frequency (per-function
// weights x a loop-nesting multiplier from the CFG's back edges), the
// machine's victim buffer discounts the misses it would absorb, and every
// predicted replacement miss is attributed to the function that suffered it
// and to the (victim, evictor) pair whose co-placement caused it. The
// program must already be placed and linked; Cost does not verify it (run
// Program first).
func Cost(p *code.Program, spec CostSpec, m arch.Machine) (*CostReport, error) {
	g := NewGeometry(m)
	ib := uint64(m.InstrBytes)
	loopW := spec.LoopWeight
	if loopW == 0 {
		loopW = DefaultLoopWeight
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

	rep := &CostReport{}

	// Functions and cache blocks get dense indices in order of first
	// reference; blockID is consulted once per placed block, not once per
	// reference. All per-set state is a slice indexed by set.
	var fns []costFunc
	fnID := map[string]int32{}
	var funcAgg []FuncCost
	var blocks []costBlock
	blockID := map[uint64]int32{}
	setBlocks := make([]int, g.Sets)
	setFuncs := make([][]int32, g.Sets)
	replBySet := make([]int, g.Sets)
	// Set s's ways are ways[s*Assoc : s*Assoc+wayLen[s]], MRU first.
	ways := make([]int32, g.Sets*g.Assoc)
	wayLen := make([]int, g.Sets)
	// pairAt maps a (victim, evictor) function pair to 1 + its index in
	// rep.Pairs.
	pairAt := map[[2]int32]int{}

	resolve := func(name string) (int32, error) {
		if id, ok := fnID[name]; ok {
			return id, nil
		}
		f := p.Func(name)
		if f == nil {
			return 0, errf(ReasonUnresolvedCall, name, "", "path spec names unknown function")
		}
		pl := p.Placement(name)
		if pl == nil {
			return 0, errf(ReasonUnplacedFunc, name, "", "path function has no placement")
		}
		id := int32(len(fns))
		fns = append(fns, costFunc{f: f, pl: pl, depths: loopDepths(f), ids: make([][]int32, len(f.Blocks))})
		funcAgg = append(funcAgg, FuncCost{Func: name})
		fnID[name] = id
		return id, nil
	}
	// spanIDs returns the ids of the cache blocks [lo, hi) touches,
	// allocating ids (and counting set occupancy) on first reference.
	var idPool []int32
	spanIDs := func(lo, hi uint64) []int32 {
		start := len(idPool)
		if hi > lo {
			for bn := g.BlockNumber(lo); bn <= g.BlockNumber(hi-1); bn++ {
				id, ok := blockID[bn]
				if !ok {
					id = int32(len(blocks))
					set := int32(bn & g.setMask)
					blocks = append(blocks, costBlock{set: set, evictor: -1})
					blockID[bn] = id
					setBlocks[set]++
				}
				idPool = append(idPool, id)
			}
		}
		return idPool[start:len(idPool):len(idPool)]
	}

	// The victim buffer absorbs part of a replacement miss's latency: a
	// refetch that hits the buffer costs VictimHitCycles instead of the
	// board-cache fill. It still counts in PredictedRepl — the simulator
	// counts it as a miss too — but its weight in Total is discounted by
	// the latency ratio.
	victimDiscount := 1.0
	if m.VictimEntries > 0 && m.BCacheHitCycles > 0 {
		victimDiscount = float64(m.VictimHitCycles) / float64(m.BCacheHitCycles)
	}
	var victimFIFO []int32
	victimPush := func(blk int32) {
		if m.VictimEntries <= 0 {
			return
		}
		victimFIFO = append(victimFIFO, blk)
		if len(victimFIFO) > m.VictimEntries {
			victimFIFO = victimFIFO[1:]
		}
	}

	// fetch replays one reference of block id by function fi, weighing w,
	// through the per-set LRU model, with the simulator's replacement
	// policy (MRU at index 0) and its miss taxonomy: the first miss on a
	// block is its cold fetch, a later miss on the same block is a
	// replacement miss — the block was evicted by a conflicting one and
	// had to be fetched again. Eviction records the evictor's function so
	// a later refetch can name the conflict pair it pays for.
	fetch := func(id, fi int32, w float64) {
		blk := &blocks[id]
		s := int(blk.set)
		if !containsID(setFuncs[s], fi) {
			setFuncs[s] = append(setFuncs[s], fi)
		}
		way := ways[s*g.Assoc : s*g.Assoc+wayLen[s]]
		hit := -1
		for i, x := range way {
			if x == id {
				hit = i
				break
			}
		}
		if hit >= 0 {
			copy(way[1:hit+1], way[:hit])
			way[0] = id
			return
		}
		if blk.fetched {
			rep.PredictedRepl++
			replBySet[s]++
			cost := w
			if containsID(victimFIFO, id) {
				rep.VictimRescued++
				cost *= victimDiscount
			}
			rep.Total += cost
			fc := &funcAgg[fi]
			fc.ReplMisses++
			fc.Cost += cost
			if ev := blk.evictor; ev >= 0 {
				key := [2]int32{fi, ev}
				at := pairAt[key]
				if at == 0 {
					rep.Pairs = append(rep.Pairs, PairCost{Victim: fns[fi].f.Name, Evictor: fns[ev].f.Name})
					at = len(rep.Pairs)
					pairAt[key] = at
				}
				pc := &rep.Pairs[at-1]
				pc.ReplMisses++
				pc.Cost += cost
			}
		}
		blk.fetched = true
		if len(way) < g.Assoc {
			wayLen[s]++
			way = way[:len(way)+1]
		} else {
			victim := way[len(way)-1]
			blocks[victim].evictor = fi
			victimPush(victim)
		}
		copy(way[1:], way)
		way[0] = id
	}

	// Expand the static reference sequence and replay it as it unfolds.
	// Hot blocks only: the engine models the fast path, and outlined error
	// blocks are exactly the code the path does not fetch. Calls from one
	// path function to the next are not expanded — the path list already
	// orders them — but calls into library helpers are, at the call site,
	// because that is where their blocks are fetched; after each expanded
	// call the caller's block is fetched again, because execution returns
	// into its middle. That return-site refetch is the reference an
	// aliasing layout turns into a replacement miss.
	var expand func(name string, depth int, callerW float64) error
	expand = func(name string, depth int, callerW float64) error {
		if depth > maxLintDepth {
			return errf(ReasonRecursion, name, "", "library expansion exceeds depth %d", maxLintDepth)
		}
		fi, err := resolve(name)
		if err != nil {
			return err
		}
		fn := fns[fi]
		base := callerW * fnWeight(name)
		for i, b := range fn.f.Blocks {
			if b.Kind.Outlinable() {
				continue
			}
			w := base
			for d := 0; d < fn.depths[i]; d++ {
				w *= loopW
			}
			ids := fn.ids[i]
			if ids == nil {
				addr, size, err := fn.pl.BlockSpan(b.Label)
				if err != nil {
					return err
				}
				ids = spanIDs(addr, addr+uint64(size)*ib)
				fn.ids[i] = ids
			}
			emit := func() {
				for _, id := range ids {
					fetch(id, fi, w)
				}
			}
			emit()
			for _, in := range b.Instrs {
				if in.Call == "" || in.CallLoad || !inLibrary[in.Call] {
					continue
				}
				if err := expand(in.Call, depth+1, w); err != nil {
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
	rep.PathBlocks = len(blocks)

	// Partition violations: a set holding hot code of both classes.
	for _, ids := range setFuncs {
		var hasPath, hasLib bool
		for _, id := range ids {
			if fns[id].f.Class == code.ClassLibrary {
				hasLib = true
			} else {
				hasPath = true
			}
		}
		if hasPath && hasLib {
			rep.PartitionViolations++
		}
	}

	// Hot/cold interleave: walk every spec'd function's blocks in placed
	// address order and count kind transitions beyond the single hot→cold
	// boundary a clean outlining leaves.
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
			return nil, errf(ReasonUnplacedFunc, name, "", "path function has no placement")
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

	// Conflict list, worst set first.
	for s, n := range replBySet {
		if n == 0 {
			continue
		}
		names := make([]string, len(setFuncs[s]))
		for i, id := range setFuncs[s] {
			names[i] = fns[id].f.Name
		}
		sort.Strings(names)
		rep.Conflicts = append(rep.Conflicts, SetConflict{
			Set:        s,
			Blocks:     setBlocks[s],
			ReplMisses: n,
			Funcs:      names,
		})
	}
	sort.Slice(rep.Conflicts, func(i, j int) bool {
		a, b := rep.Conflicts[i], rep.Conflicts[j]
		if a.ReplMisses != b.ReplMisses {
			return a.ReplMisses > b.ReplMisses
		}
		return a.Set < b.Set
	})

	// Attribution lists, worst first; name-ordered on ties so the report is
	// deterministic.
	for _, fc := range funcAgg {
		if fc.ReplMisses > 0 {
			rep.ByFunc = append(rep.ByFunc, fc)
		}
	}
	sort.Slice(rep.ByFunc, func(i, j int) bool {
		a, b := rep.ByFunc[i], rep.ByFunc[j]
		if a.Cost != b.Cost {
			return a.Cost > b.Cost
		}
		return a.Func < b.Func
	})
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

// containsID reports whether ids holds id.
func containsID(ids []int32, id int32) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
