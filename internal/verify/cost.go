package verify

import (
	"cmp"
	"slices"
	"strings"
	"sync"

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
	// from the map (or the whole map when nil) weigh 1. Seed it from the
	// invocation-count hints the micro-positioning layout already uses, or
	// from a dynamic profile's per-function call counts.
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
	f  *code.Function
	pl *code.Placement
	// k is the function's link position.
	k      int
	weight float64
	depths []int
	// ids holds, per block, the ids of the cache blocks it touches, filled
	// on the block's first emission so that re-expanding a library helper
	// costs no lookups.
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
// and conservative for anything wilder. ix is f's block index; depth and
// latch are scratch of len(f.Blocks) each; depth is returned filled.
func loopDepths(f *code.Function, ix *code.BlockIndex, depth, latch []int) []int {
	// Widest range per head, so parallel latches of one loop do not stack.
	for i := range latch {
		latch[i] = -1
	}
	back := func(from int, label string, to int) {
		if label == "" || to < 0 || to > from || f.Blocks[to].Kind.Outlinable() {
			return
		}
		latch[to] = max(latch[to], from)
	}
	for i, b := range f.Blocks {
		if b.Kind.Outlinable() {
			continue
		}
		switch b.Term.Kind {
		case code.TermJump:
			back(i, b.Term.Then, ix.Then(i))
		case code.TermCond:
			back(i, b.Term.Then, ix.Then(i))
			back(i, b.Term.Else, ix.Else(i))
		}
	}
	clear(depth)
	for to, from := range latch {
		for i := to; i <= from; i++ {
			if depth[i] < maxLoopDepth {
				depth[i]++
			}
		}
	}
	return depth
}

// blockTable maps cache-block numbers to dense ids: open addressing over
// a power-of-two table whose slots are valid only under the current stamp,
// so one Cost call's table is emptied by taking a new stamp.
type blockTable struct {
	keys  []uint64
	vals  []int32
	stamp []uint32
	cur   uint32
	n     int
}

func (t *blockTable) reset() {
	if t.cur++; t.cur == 0 || len(t.keys) == 0 {
		t.alloc(max(len(t.keys), 1024))
	}
	t.n = 0
}

func (t *blockTable) alloc(size int) {
	t.keys, t.vals, t.stamp = make([]uint64, size), make([]int32, size), make([]uint32, size)
	t.cur = 1
}

func (t *blockTable) slot(bn uint64) int {
	mask := uint64(len(t.keys) - 1)
	i := (bn * 0x9e3779b97f4a7c15 >> 20) & mask
	for t.stamp[i] == t.cur && t.keys[i] != bn {
		i = (i + 1) & mask
	}
	return int(i)
}

// get returns bn's id, or ok=false.
func (t *blockTable) get(bn uint64) (int32, bool) {
	i := t.slot(bn)
	return t.vals[i], t.stamp[i] == t.cur
}

// put records bn's id; bn must not be present.
func (t *blockTable) put(bn uint64, id int32) {
	if 2*(t.n+1) > len(t.keys) {
		keys, vals, stamp, cur := t.keys, t.vals, t.stamp, t.cur
		t.alloc(2 * len(keys))
		for i, s := range stamp {
			if s == cur {
				j := t.slot(keys[i])
				t.keys[j], t.vals[j], t.stamp[j] = keys[i], vals[i], t.cur
			}
		}
	}
	i := t.slot(bn)
	t.keys[i], t.vals[i], t.stamp[i] = bn, id, t.cur
	t.n++
}

// costScratch is the reusable state of one Cost call. Nothing in it
// survives into the report, and every field is reset before use.
type costScratch struct {
	fns     []costFunc
	funcAgg []FuncCost
	// fnAt holds 1 + the index in fns of each function id whose fnStamp
	// is stamp; isLib marks spec'd library helpers the same way, and
	// inSpec every spec'd function.
	fnAt                   []int32
	fnStamp, isLib, inSpec []uint32
	stamp                  uint32
	unresolvedLib          []string
	blocks                 []costBlock
	blockID                blockTable
	setBlocks              []int
	setFuncs               [][]int32
	replBySet              []int
	ways                   []int32
	wayLen                 []int
	pairKeys               [][2]int32
	idPool                 []int32
	idHeads                [][]int32
	depthPool              []int
	latch                  []int
	victims                []int32
}

var costPool = sync.Pool{New: func() any { return new(costScratch) }}

// release returns cs to the pool without the functions and placements
// it resolved, so that an idle pool keeps no image alive.
func (cs *costScratch) release() {
	clear(cs.fns[:cap(cs.fns)])
	costPool.Put(cs)
}

// resized returns s with length n, reusing its array when large enough;
// the contents are not cleared.
func resized[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// reset prepares the scratch for one call on a g-shaped cache over
// function ids up to maxID.
func (cs *costScratch) reset(g Geometry, maxID int32) {
	cs.fns, cs.funcAgg, cs.blocks = cs.fns[:0], cs.funcAgg[:0], cs.blocks[:0]
	cs.unresolvedLib, cs.pairKeys = cs.unresolvedLib[:0], cs.pairKeys[:0]
	cs.idPool, cs.idHeads, cs.depthPool = cs.idPool[:0], cs.idHeads[:0], cs.depthPool[:0]
	if cs.stamp++; cs.stamp == 0 || len(cs.fnAt) <= int(maxID) {
		n := max(int(maxID)+1, cap(cs.fnAt))
		cs.fnAt, cs.fnStamp = make([]int32, n), make([]uint32, n)
		cs.isLib, cs.inSpec = make([]uint32, n), make([]uint32, n)
		cs.stamp = 1
	}
	cs.blockID.reset()
	cs.setBlocks = resized(cs.setBlocks, g.Sets)
	clear(cs.setBlocks)
	cs.replBySet = resized(cs.replBySet, g.Sets)
	clear(cs.replBySet)
	cs.wayLen = resized(cs.wayLen, g.Sets)
	clear(cs.wayLen)
	cs.ways = resized(cs.ways, g.Sets*g.Assoc)
	if len(cs.setFuncs) < g.Sets {
		cs.setFuncs = append(cs.setFuncs, make([][]int32, g.Sets-len(cs.setFuncs))...)
	}
	cs.setFuncs = cs.setFuncs[:g.Sets]
	for s := range cs.setFuncs {
		cs.setFuncs[s] = cs.setFuncs[s][:0]
	}
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
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	sc.begin(p)
	return sc.cost(p, spec, m)
}

// cost is Cost over the program begin read: block indexes and call sites
// come from sc, gathered once per function whichever pass asks first.
func (sc *scratch) cost(p *code.Program, spec CostSpec, m arch.Machine) (*CostReport, error) {
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

	cs := costPool.Get().(*costScratch)
	defer cs.release()
	maxID := int32(0)
	for i := 0; i < p.NumFuncs(); i++ {
		maxID = max(maxID, p.FuncAt(i).ID())
	}
	cs.reset(g, maxID)
	for _, n := range spec.Library {
		if f := p.Func(n); f != nil {
			cs.isLib[f.ID()] = cs.stamp
		} else {
			cs.unresolvedLib = append(cs.unresolvedLib, n)
		}
	}
	// libCallee returns the callee of a call site of f when it is a
	// spec'd library helper, the functions whose calls the replay
	// expands: its name, and its function unless the program has none.
	libCallee := func(f *code.Function, s *callSite) (string, *code.Function, bool) {
		if g := p.FuncByID(s.callee); g != nil {
			return g.Name, g, cs.isLib[g.ID()] == cs.stamp
		}
		name := f.Blocks[s.blk].Instrs[s.instr].Call()
		return name, nil, slices.Contains(cs.unresolvedLib, name)
	}

	rep := &CostReport{}

	// Functions and cache blocks get dense indices in order of first
	// reference; the block table is consulted once per placed block, not
	// once per reference. All per-set state is a slice indexed by set:
	// set s's ways are ways[s*Assoc : s*Assoc+wayLen[s]], MRU first.
	ways, wayLen := cs.ways, cs.wayLen

	resolve := func(name string, f *code.Function) (int32, error) {
		if f == nil {
			if f = p.Func(name); f == nil {
				return 0, errf(ReasonUnresolvedCall, name, "", "path spec names unknown function")
			}
		}
		if cs.fnStamp[f.ID()] == cs.stamp {
			return cs.fnAt[f.ID()] - 1, nil
		}
		pl := p.PlacementOf(f)
		if pl == nil {
			return 0, errf(ReasonUnplacedFunc, name, "", "path function has no placement")
		}
		n, k := len(f.Blocks), int(sc.at[f.ID()])
		start := len(cs.depthPool)
		cs.depthPool = append(cs.depthPool, make([]int, n)...)
		cs.latch = resized(cs.latch, n)
		depths := loopDepths(f, sc.index(k), cs.depthPool[start:start+n:start+n], cs.latch)
		start = len(cs.idHeads)
		cs.idHeads = append(cs.idHeads, make([][]int32, n)...)
		clear(cs.idHeads[start:])
		id := int32(len(cs.fns))
		cs.fns = append(cs.fns, costFunc{f: f, pl: pl, k: k, weight: fnWeight(name), depths: depths, ids: cs.idHeads[start : start+n : start+n]})
		cs.funcAgg = append(cs.funcAgg, FuncCost{Func: name})
		cs.fnStamp[f.ID()], cs.fnAt[f.ID()] = cs.stamp, id+1
		return id, nil
	}
	// spanIDs returns the ids of the cache blocks [lo, hi) touches,
	// allocating ids (and counting set occupancy) on first reference.
	spanIDs := func(lo, hi uint64) []int32 {
		start := len(cs.idPool)
		if hi > lo {
			for bn := g.BlockNumber(lo); bn <= g.BlockNumber(hi-1); bn++ {
				id, ok := cs.blockID.get(bn)
				if !ok {
					id = int32(len(cs.blocks))
					set := int32(bn & g.setMask)
					cs.blocks = append(cs.blocks, costBlock{set: set, evictor: -1})
					cs.blockID.put(bn, id)
					cs.setBlocks[set]++
				}
				cs.idPool = append(cs.idPool, id)
			}
		}
		return cs.idPool[start:len(cs.idPool):len(cs.idPool)]
	}

	// The victim buffer absorbs part of a replacement miss's latency: a
	// refetch that hits the buffer costs VictimHitCycles instead of the
	// board-cache fill. It still counts in PredictedRepl — the simulator
	// counts it as a miss too — but its weight in Total is discounted by
	// the latency ratio. The buffer holds the last VictimEntries evicted
	// blocks, kept as a ring.
	victimDiscount := 1.0
	if m.VictimEntries > 0 && m.BCacheHitCycles > 0 {
		victimDiscount = float64(m.VictimHitCycles) / float64(m.BCacheHitCycles)
	}
	victims, victimNext := cs.victims[:0], 0
	victimPush := func(blk int32) {
		if m.VictimEntries <= 0 {
			return
		}
		if len(victims) < m.VictimEntries {
			victims = append(victims, blk)
			return
		}
		victims[victimNext] = blk
		victimNext = (victimNext + 1) % m.VictimEntries
	}
	defer func() { cs.victims = victims[:0] }()

	// fetch replays one reference of block id by function fi, weighing w,
	// through the per-set LRU model, with the simulator's replacement
	// policy (MRU at index 0) and its miss taxonomy: the first miss on a
	// block is its cold fetch, a later miss on the same block is a
	// replacement miss — the block was evicted by a conflicting one and
	// had to be fetched again. Eviction records the evictor's function so
	// a later refetch can name the conflict pair it pays for.
	fetch := func(id, fi int32, w float64) {
		blk := &cs.blocks[id]
		s := int(blk.set)
		if !containsID(cs.setFuncs[s], fi) {
			cs.setFuncs[s] = append(cs.setFuncs[s], fi)
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
			cs.replBySet[s]++
			cost := w
			if containsID(victims, id) {
				rep.VictimRescued++
				cost *= victimDiscount
			}
			rep.Total += cost
			fc := &cs.funcAgg[fi]
			fc.ReplMisses++
			fc.Cost += cost
			if ev := blk.evictor; ev >= 0 {
				key := [2]int32{fi, ev}
				at := slices.Index(cs.pairKeys, key)
				if at < 0 {
					rep.Pairs = append(rep.Pairs, PairCost{Victim: cs.fns[fi].f.Name, Evictor: cs.fns[ev].f.Name})
					cs.pairKeys = append(cs.pairKeys, key)
					at = len(cs.pairKeys) - 1
				}
				pc := &rep.Pairs[at]
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
			cs.blocks[victim].evictor = fi
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
	// aliasing layout turns into a replacement miss. f is name's function
	// when the caller already resolved it, else nil.
	var expand func(name string, f *code.Function, depth int, callerW float64) error
	expand = func(name string, f *code.Function, depth int, callerW float64) error {
		if depth > maxLintDepth {
			return errf(ReasonRecursion, name, "", "library expansion exceeds depth %d", maxLintDepth)
		}
		fi, err := resolve(name, f)
		if err != nil {
			return err
		}
		fn := cs.fns[fi]
		base := callerW * fn.weight
		// The function's call sites, in block and body order; s indexes
		// the first one of the block being expanded.
		sites, s := sc.callSites(fn.k), 0
		for i, b := range fn.f.Blocks {
			if b.Kind.Outlinable() {
				for s < len(sites) && int(sites[s].blk) == i {
					s++
				}
				continue
			}
			w := base
			for d := 0; d < fn.depths[i]; d++ {
				w *= loopW
			}
			ids := fn.ids[i]
			if ids == nil {
				addr, size, err := fn.pl.BlockSpanAt(i)
				if err != nil {
					return err
				}
				ids = spanIDs(addr, addr+uint64(size)*ib)
				fn.ids[i] = ids
			}
			for _, id := range ids {
				fetch(id, fi, w)
			}
			for ; s < len(sites) && int(sites[s].blk) == i; s++ {
				if sites[s].load {
					continue
				}
				callee, g, lib := libCallee(fn.f, &sites[s])
				if !lib {
					continue
				}
				if err := expand(callee, g, depth+1, w); err != nil {
					return err
				}
				for _, id := range ids {
					fetch(id, fi, w)
				}
			}
		}
		return nil
	}
	for _, name := range spec.Path {
		if err := expand(name, nil, 0, 1); err != nil {
			return nil, err
		}
	}
	rep.PathBlocks = len(cs.blocks)

	// Partition violations: a set holding hot code of both classes.
	for _, ids := range cs.setFuncs {
		var hasPath, hasLib bool
		for _, id := range ids {
			if cs.fns[id].f.Class == code.ClassLibrary {
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
	for _, names := range [2][]string{spec.Path, spec.Library} {
		for _, name := range names {
			f := p.Func(name)
			if f == nil {
				continue
			}
			pl := p.PlacementOf(f)
			if pl == nil {
				return nil, errf(ReasonUnplacedFunc, name, "", "path function has no placement")
			}
			for i := range f.Blocks {
				if _, _, err := pl.BlockSpanAt(i); err != nil {
					return nil, err
				}
			}
			cs.inSpec[f.ID()] = cs.stamp
		}
	}
	flips, prev := 0, -1
	for _, t := range p.TextOrder() {
		if cs.inSpec[p.FuncAt(int(t.Func)).ID()] != cs.stamp {
			continue
		}
		cold := 0
		if t.Block.Kind.Outlinable() {
			cold = 1
		}
		if prev >= 0 && cold != prev {
			flips++
		}
		prev = cold
	}
	if flips > 1 {
		rep.HotColdInterleave = flips - 1
	}

	// Conflict list, worst set first.
	for s, n := range cs.replBySet {
		if n == 0 {
			continue
		}
		names := make([]string, len(cs.setFuncs[s]))
		for i, id := range cs.setFuncs[s] {
			names[i] = cs.fns[id].f.Name
		}
		slices.Sort(names)
		rep.Conflicts = append(rep.Conflicts, SetConflict{
			Set:        s,
			Blocks:     cs.setBlocks[s],
			ReplMisses: n,
			Funcs:      names,
		})
	}
	slices.SortFunc(rep.Conflicts, func(a, b SetConflict) int {
		if a.ReplMisses != b.ReplMisses {
			return cmp.Compare(b.ReplMisses, a.ReplMisses)
		}
		return cmp.Compare(a.Set, b.Set)
	})

	// Attribution lists, worst first; name-ordered on ties so the report is
	// deterministic.
	for _, fc := range cs.funcAgg {
		if fc.ReplMisses > 0 {
			rep.ByFunc = append(rep.ByFunc, fc)
		}
	}
	slices.SortFunc(rep.ByFunc, func(a, b FuncCost) int {
		if a.Cost != b.Cost {
			return cmp.Compare(b.Cost, a.Cost)
		}
		return strings.Compare(a.Func, b.Func)
	})
	slices.SortFunc(rep.Pairs, func(a, b PairCost) int {
		if a.Cost != b.Cost {
			return cmp.Compare(b.Cost, a.Cost)
		}
		if a.Victim != b.Victim {
			return strings.Compare(a.Victim, b.Victim)
		}
		return strings.Compare(a.Evictor, b.Evictor)
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
