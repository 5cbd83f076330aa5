package mem

import (
	"sync"

	"repro/internal/arch"
)

// Hierarchy is the complete simulated memory system of one host. All methods
// take the current virtual cycle ("now") and return the number of cycles the
// CPU stalls on the access; the caller (internal/sim/cpu) owns the clock.
// now must not decrease between Resets: the write buffer's drain times and
// the stream buffer's arrival time are cycles of that one forward clock.
type Hierarchy struct {
	m arch.Machine

	icache *cache
	dcache *cache
	bcache *cache
	wbuf   *writeBuffer

	// l2, when non-nil, is the optional unified mid-level cache between
	// the first-level caches and the b-cache (Machine.L2Bytes > 0).
	// First-level fills and stream-buffer prefetches probe it; write-
	// buffer retirement bypasses it straight to the b-cache (the write
	// path stays write-through).
	l2 *cache

	// victim, when non-nil, is the small fully-associative buffer of
	// blocks recently evicted from the i-cache (Machine.VictimEntries >
	// 0). An i-cache miss that finds its block there swaps it back for
	// VictimHitCycles instead of taking the fill path.
	victim *victimBuffer

	// shift mirrors the block shift of both first-level caches (they
	// share Machine.BlockBytes) so the per-event fetch and load fast paths
	// need no pointer chase into the cache structs.
	shift uint

	// Single-entry sequential stream buffer between the i-cache and the
	// b-cache. Every i-cache miss prefetches the next sequential block;
	// a later miss that lands on the prefetched block is filled cheaply
	// once the prefetch has actually arrived — a prefetch that itself
	// missed the b-cache takes a full memory access to complete, and a
	// consumer that catches up earlier waits for the remainder. This is
	// what rewards the paper's sequential layouts and punishes scattered
	// ones: in-order code streams out of the b-cache, while a pessimal
	// layout's prefetches drag main-memory latency behind them.
	streamBlock   uint64
	streamValid   bool
	streamReadyAt uint64

	// lastIBlock memoizes the most recently fetched instruction block.
	// Straight-line code fetches the same block for consecutive
	// instructions, and only an i-cache fill can evict it — which would
	// update the memo — so a matching memo is a guaranteed hit that needs
	// no set lookup and no LRU update (the block is already MRU). noBlock
	// means no memo.
	lastIBlock uint64

	// lastDBlock memoizes the block of the most recent d-cache access (a
	// load's hit or fill, a write-allocate store's hit or fill). Only
	// d-cache accesses change d-cache contents, and each leaves its block
	// resident and MRU, so a load to the memoized block is a guaranteed
	// hit that needs no set lookup. noBlock means no memo.
	lastDBlock uint64

	// IStats counts instruction fetches against the i-cache, DStats the
	// combined d-cache/write-buffer behaviour, BStats the unified
	// b-cache (fills, prefetches, and write retirements).
	IStats Stats
	DStats Stats
	BStats Stats

	// L2Stats counts mid-level cache probes; it stays zero on machines
	// without an L2 (L2Bytes == 0), including the paper's DEC 3000/600.
	L2Stats Stats

	// VictimHits counts i-cache misses satisfied by the victim buffer.
	// These still count as IStats misses — the i-cache itself did miss —
	// so per-set replacement counts stay comparable with the static lint;
	// only the stall cycles change.
	VictimHits uint64

	// OnIMiss, when non-nil, observes every i-cache miss: the faulting
	// instruction address and whether the miss was a replacement
	// (conflict) miss rather than a cold one; outside an epoch every
	// miss reports repl=false (see BeginEpoch). The observability layer
	// uses it to build per-set conflict heatmaps. The hook sits on the
	// miss path only, so a nil hook leaves the hit path untouched and
	// costs one pointer comparison per miss.
	OnIMiss func(addr uint64, repl bool)
}

// New builds a hierarchy for machine m, with cold caches and no epoch
// open. The machine description must be valid (see
// arch.Machine.Validate).
func New(m arch.Machine) *Hierarchy {
	assoc := m.Assoc
	if assoc < 1 {
		assoc = 1
	}
	h := &Hierarchy{
		m:      m,
		icache: newCache(m.ICacheBytes, m.BlockBytes, assoc),
		dcache: newCache(m.DCacheBytes, m.BlockBytes, assoc),
		bcache: newCache(m.BCacheBytes, m.BlockBytes, 1),
		wbuf:   newWriteBuffer(m.WriteBufferEntries, m.WriteRetireCycles),
	}
	if m.L2Bytes > 0 {
		h.l2 = newCache(m.L2Bytes, m.BlockBytes, m.L2Assoc)
	}
	if m.VictimEntries > 0 {
		h.victim = newVictimBuffer(m.VictimEntries)
	}
	h.shift = h.icache.blockShift
	h.lastIBlock, h.lastDBlock = noBlock, noBlock
	return h
}

// noBlock is the empty value of the block memos. A block number is
// addr >> shift, at most 2^63-1 with blocks of two bytes or more (the
// machine matrix's are 32 to 128), so it never equals noBlock.
const noBlock = ^uint64(0)

// hierPools recycles hierarchies between simulation samples, one
// *sync.Pool per arch.Machine. The cache backing arrays dominate a
// sample's allocations (the b-cache alone has tens of thousands of sets),
// and resetting a recycled hierarchy is a generation bump rather than a
// rebuild, so reuse removes both the allocator and the garbage collector
// from the per-sample critical path. Keeping a pool per machine lets a
// machine sweep that interleaves geometries recycle every one of them.
var hierPools sync.Map // arch.Machine -> *sync.Pool

// poolFor returns the pool of hierarchies built for machine m.
func poolFor(m arch.Machine) *sync.Pool {
	if p, ok := hierPools.Load(m); ok {
		return p.(*sync.Pool)
	}
	p, _ := hierPools.LoadOrStore(m, new(sync.Pool))
	return p.(*sync.Pool)
}

// NewPooled returns a cold hierarchy for machine m, reusing one Released
// for the same machine when there is one. A recycled hierarchy is
// indistinguishable from a fresh one: Reset restores cold caches, an empty
// write buffer, zeroed statistics, a closed epoch and a nil OnIMiss hook,
// so results are byte-identical whether or not reuse happened (a tested
// invariant).
func NewPooled(m arch.Machine) *Hierarchy {
	if v := poolFor(m).Get(); v != nil {
		h := v.(*Hierarchy)
		h.OnIMiss = nil
		h.Reset()
		return h
	}
	return New(m)
}

// Release returns h to its machine's reuse pool. The caller must not
// touch h afterwards; the next NewPooled with the same machine may hand
// it out.
func (h *Hierarchy) Release() { poolFor(h.m).Put(h) }

// Machine returns the machine description this hierarchy simulates.
func (h *Hierarchy) Machine() arch.Machine { return h.m }

// ILineShift returns log2 of the i-cache line size in bytes: instructions
// whose addresses agree above it share a line, so only the first of them
// can miss.
func (h *Hierarchy) ILineShift() uint { return h.shift }

// bAccess performs one b-cache reference and returns the CPU-visible stall.
func (h *Hierarchy) bAccess(addr uint64, stallOnHit uint64) (stall uint64) {
	h.BStats.Accesses++
	hit, repl := h.bcache.access(addr)
	if hit {
		return stallOnHit
	}
	h.BStats.Misses++
	if repl {
		h.BStats.ReplMisses++
	}
	return uint64(h.m.MemoryCycles)
}

// fillAccess services a first-level fill (i-cache fill, stream-buffer
// prefetch, or d-cache load miss) through the rest of the hierarchy: the
// optional unified L2 first, then the b-cache. Machines without an L2
// degenerate to a plain b-cache access, keeping the paper's baseline
// bit-identical. Write-buffer retirement deliberately does not come through
// here — the write path is write-through straight to the b-cache.
func (h *Hierarchy) fillAccess(addr uint64, stallOnHit uint64) (stall uint64) {
	if h.l2 == nil {
		return h.bAccess(addr, stallOnHit)
	}
	h.L2Stats.Accesses++
	hit, repl := h.l2.access(addr)
	if hit {
		return uint64(h.m.L2HitCycles)
	}
	h.L2Stats.Misses++
	if repl {
		h.L2Stats.ReplMisses++
	}
	return h.bAccess(addr, stallOnHit)
}

// FetchInstr simulates the instruction fetch for the instruction at addr.
// Every dynamic instruction counts as one i-cache access, so
// IStats.Accesses equals the dynamic instruction count, as in the paper.
// The body is small enough to inline into cpu.(*CPU).Exec, and
// scripts/inline_check.sh keeps it so. Straight-line code takes the
// memoized same-block path without a cache lookup — the block is still
// resident (only an i-fill evicts i-cache lines, and any fill updates the
// memo) and already in MRU position.
func (h *Hierarchy) FetchInstr(now, addr uint64) (stall uint64) {
	h.IStats.Accesses++
	if addr>>h.shift == h.lastIBlock {
		return 0
	}
	return h.fetchSlow(now, addr)
}

// fetchSlow is the out-of-line continuation of FetchInstr: a real i-cache
// lookup, and on a miss the victim-buffer/stream-buffer/fill path.
func (h *Hierarchy) fetchSlow(now, addr uint64) (stall uint64) {
	block := addr >> h.shift
	var hit, repl, hasEvict bool
	var evicted uint64
	if h.victim != nil {
		// Track which resident block the fill displaces so it can be
		// parked in the victim buffer (Jouppi-style) instead of lost.
		hit, repl, evicted, hasEvict = h.icache.accessEvict(addr)
	} else {
		hit, repl = h.icache.access(addr)
	}
	if hit {
		h.lastIBlock = block
		return 0
	}
	h.IStats.Misses++
	if repl {
		h.IStats.ReplMisses++
	}
	if h.OnIMiss != nil {
		h.OnIMiss(addr, repl)
	}
	if h.victim != nil && h.victim.take(block) {
		// Victim hit: the displaced block swaps back in one short
		// transfer. No stream-buffer prefetch — the victim path exists
		// precisely because the reference pattern is ping-ponging
		// between conflicting blocks, not streaming forward.
		h.VictimHits++
		if hasEvict {
			h.victim.put(evicted)
		}
		h.lastIBlock = block
		return uint64(h.m.VictimHitCycles)
	}
	if hasEvict {
		h.victim.put(evicted)
	}
	if h.streamValid && h.streamBlock == block {
		// The block was sequentially prefetched: cheap fill, plus
		// however long the prefetch itself still needs to arrive.
		stall = uint64(h.m.PrefetchHitCycles)
		if h.streamReadyAt > now {
			stall += h.streamReadyAt - now
		}
	} else {
		stall = h.fillAccess(addr, uint64(h.m.BCacheHitCycles))
	}
	// The miss filled the block, so it is resident (and MRU) now.
	h.lastIBlock = block
	// Prefetch the next sequential block into the stream buffer unless it
	// is already resident; this is an extra fill access that overlaps
	// execution (the CPU only stalls if it catches up with it).
	next := addr + uint64(h.m.BlockBytes)
	if !h.icache.present(next) {
		latency := h.fillAccess(next, uint64(h.m.BCacheHitCycles))
		h.streamBlock = block + 1
		h.streamValid = true
		h.streamReadyAt = now + stall + latency
	} else {
		h.streamValid = false
	}
	return stall
}

// Load simulates a data read of the block containing addr. Like
// FetchInstr it inlines into cpu.(*CPU).Exec: a load to the block of the
// most recent d-cache access hits without a lookup.
func (h *Hierarchy) Load(now, addr uint64) (stall uint64) {
	h.DStats.Accesses++
	if addr>>h.shift == h.lastDBlock {
		return 0
	}
	return h.loadSlow(addr)
}

// loadSlow is the out-of-line continuation of Load: a real d-cache lookup,
// and on a miss the fill through the rest of the hierarchy.
func (h *Hierarchy) loadSlow(addr uint64) (stall uint64) {
	hit, repl := h.dcache.access(addr)
	h.lastDBlock = addr >> h.shift
	if hit {
		return 0
	}
	h.DStats.Misses++
	if repl {
		h.DStats.ReplMisses++
	}
	return h.fillAccess(addr, uint64(h.m.BCacheHitCycles))
}

// Store simulates a data write through the write buffer. On the paper's
// machine the d-cache is write-through and allocates on read misses only,
// so the d-cache contents are updated only if the block is already
// resident. A write that merges into an active write-buffer entry counts
// as a hit; an unmerged write counts as a miss and retires through the
// b-cache (which allocates on either miss type).
//
// On machines with DCacheWriteAllocate set, an unmerged write whose block
// is absent from the d-cache additionally fills it, and the CPU waits for
// that fill (a read-for-ownership): the fill stall is fully exposed on top
// of any write-buffer stall. The fill subsumes the retirement access, so
// b-cache traffic stays one access per unmerged write on either policy.
func (h *Hierarchy) Store(now, addr uint64) (stall uint64) {
	h.DStats.Accesses++
	block := addr >> h.shift
	merged, wstall := h.wbuf.put(now, block)
	if merged {
		return wstall
	}
	h.DStats.Misses++
	if h.m.DCacheWriteAllocate {
		hit, _ := h.dcache.access(addr)
		h.lastDBlock = block
		if !hit {
			// Write-allocate fill: fetch the block before the write can
			// complete. The CPU sees the full fill latency.
			return wstall + h.fillAccess(addr, uint64(h.m.BCacheHitCycles))
		}
	}
	// The retirement write is a b-cache access; it allocates in the
	// b-cache but its latency is hidden behind the write buffer, so the
	// only CPU-visible stall is a full buffer.
	h.BStats.Accesses++
	hit, repl := h.bcache.access(addr)
	if !hit {
		h.BStats.Misses++
		if repl {
			h.BStats.ReplMisses++
		}
	}
	return wstall
}

// BeginEpoch zeroes all statistics, forgets the cold/replacement
// classification history while keeping cache contents warm, and opens an
// epoch: from here until the next Reset every miss is classified. Use it
// at the start of a traced measurement, as the paper does.
func (h *Hierarchy) BeginEpoch() {
	h.zeroStats()
	h.icache.beginEpoch()
	h.dcache.beginEpoch()
	h.bcache.beginEpoch()
	if h.l2 != nil {
		h.l2.beginEpoch()
	}
}

func (h *Hierarchy) zeroStats() {
	h.IStats, h.DStats, h.BStats, h.L2Stats = Stats{}, Stats{}, Stats{}, Stats{}
	h.VictimHits = 0
}

// Reset makes every cache cold, zeroes all statistics and closes the
// epoch.
func (h *Hierarchy) Reset() {
	h.zeroStats()
	h.icache.reset()
	h.dcache.reset()
	h.bcache.reset()
	h.wbuf.reset()
	if h.l2 != nil {
		h.l2.reset()
	}
	if h.victim != nil {
		h.victim.reset()
	}
	h.streamValid = false
	h.lastIBlock, h.lastDBlock = noBlock, noBlock
}

// ICachePresent reports whether the i-cache currently holds the block
// containing addr; used by layout-quality diagnostics and tests.
func (h *Hierarchy) ICachePresent(addr uint64) bool { return h.icache.present(addr) }

// DCachePresent reports whether the d-cache currently holds the block
// containing addr.
func (h *Hierarchy) DCachePresent(addr uint64) bool { return h.dcache.present(addr) }
