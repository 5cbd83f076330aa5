package mem_test

import (
	"slices"

	"repro/internal/arch"
	"repro/internal/sim/mem"
)

// refCache is a reference cache level: per-set slices of block numbers in
// LRU order (MRU first), and a map of every block missed since the last
// reset or epoch start, so it classifies every miss at all times.
type refCache struct {
	shift uint
	assoc int
	sets  [][]uint64
	seen  map[uint64]bool
}

func newRefCache(sizeBytes, blockBytes, assoc int) *refCache {
	assoc = max(assoc, 1)
	c := &refCache{assoc: assoc, sets: make([][]uint64, sizeBytes/blockBytes/assoc)}
	for 1<<c.shift != blockBytes {
		c.shift++
	}
	c.reset()
	return c
}

func (c *refCache) set(b uint64) *[]uint64 { return &c.sets[b%uint64(len(c.sets))] }

func (c *refCache) present(addr uint64) bool {
	b := addr >> c.shift
	return slices.Contains(*c.set(b), b)
}

// access looks the block up, moving it to MRU on a hit and filling it on a
// miss; it reports the LRU block a miss displaced from a full set.
func (c *refCache) access(addr uint64) (hit, repl bool, evicted uint64, hasEvict bool) {
	b := addr >> c.shift
	s := c.set(b)
	if i := slices.Index(*s, b); i >= 0 {
		*s = slices.Insert(slices.Delete(*s, i, i+1), 0, b)
		return true, false, 0, false
	}
	repl = c.seen[b]
	c.seen[b] = true
	if len(*s) == c.assoc {
		evicted, hasEvict = (*s)[c.assoc-1], true
		*s = (*s)[:c.assoc-1]
	}
	*s = slices.Insert(*s, 0, b)
	return false, repl, evicted, hasEvict
}

func (c *refCache) reset() {
	for i := range c.sets {
		c.sets[i] = nil
	}
	c.seen = map[uint64]bool{}
}

// refWrite is one entry of the reference write buffer.
type refWrite struct {
	block, drainsAt uint64
	valid           bool
}

// refHierarchy is the memory hierarchy written for clarity rather than
// speed: every fetch looks the i-cache up (no same-block memo), the victim
// buffer is an LRU slice, and the write buffer scans every entry for a
// merge and for the earliest to drain when full.
type refHierarchy struct {
	m             arch.Machine
	i, d, b, l2   *refCache
	victim        []uint64 // MRU first
	streamBlock   uint64
	streamValid   bool
	streamReadyAt uint64
	wbuf          []refWrite
	retireAt      uint64
	I, D, B, L2   mem.Stats
	VictimHits    uint64
	onIMiss       func(addr uint64, repl bool)
}

func newRefHierarchy(m arch.Machine) *refHierarchy {
	h := &refHierarchy{
		m:    m,
		i:    newRefCache(m.ICacheBytes, m.BlockBytes, m.Assoc),
		d:    newRefCache(m.DCacheBytes, m.BlockBytes, m.Assoc),
		b:    newRefCache(m.BCacheBytes, m.BlockBytes, 1),
		wbuf: make([]refWrite, m.WriteBufferEntries),
	}
	if m.L2Bytes > 0 {
		h.l2 = newRefCache(m.L2Bytes, m.BlockBytes, m.L2Assoc)
	}
	return h
}

func (h *refHierarchy) bAccess(addr, onHit uint64) uint64 {
	h.B.Accesses++
	hit, repl, _, _ := h.b.access(addr)
	if hit {
		return onHit
	}
	h.B.Misses++
	if repl {
		h.B.ReplMisses++
	}
	return uint64(h.m.MemoryCycles)
}

// fill serves a first-level fill: the L2 when there is one, then the
// b-cache.
func (h *refHierarchy) fill(addr uint64) uint64 {
	onHit := uint64(h.m.BCacheHitCycles)
	if h.l2 == nil {
		return h.bAccess(addr, onHit)
	}
	h.L2.Accesses++
	hit, repl, _, _ := h.l2.access(addr)
	if hit {
		return uint64(h.m.L2HitCycles)
	}
	h.L2.Misses++
	if repl {
		h.L2.ReplMisses++
	}
	return h.bAccess(addr, onHit)
}

func (h *refHierarchy) FetchInstr(now, addr uint64) (stall uint64) {
	h.I.Accesses++
	block := addr >> h.i.shift
	hit, repl, evicted, hasEvict := h.i.access(addr)
	if hit {
		return 0
	}
	h.I.Misses++
	if repl {
		h.I.ReplMisses++
	}
	if h.onIMiss != nil {
		h.onIMiss(addr, repl)
	}
	if h.m.VictimEntries > 0 {
		k := slices.Index(h.victim, block)
		if k >= 0 {
			h.victim = slices.Delete(h.victim, k, k+1)
		}
		if hasEvict {
			h.victim = slices.Insert(h.victim, 0, evicted)
			h.victim = h.victim[:min(len(h.victim), h.m.VictimEntries)]
		}
		if k >= 0 {
			h.VictimHits++
			return uint64(h.m.VictimHitCycles)
		}
	}
	if h.streamValid && h.streamBlock == block {
		stall = uint64(h.m.PrefetchHitCycles)
		if h.streamReadyAt > now {
			stall += h.streamReadyAt - now
		}
	} else {
		stall = h.fill(addr)
	}
	if next := addr + uint64(h.m.BlockBytes); !h.i.present(next) {
		latency := h.fill(next)
		h.streamBlock, h.streamValid, h.streamReadyAt = block+1, true, now+stall+latency
	} else {
		h.streamValid = false
	}
	return stall
}

func (h *refHierarchy) Load(now, addr uint64) uint64 {
	h.D.Accesses++
	hit, repl, _, _ := h.d.access(addr)
	if hit {
		return 0
	}
	h.D.Misses++
	if repl {
		h.D.ReplMisses++
	}
	return h.fill(addr)
}

func (h *refHierarchy) Store(now, addr uint64) uint64 {
	h.D.Accesses++
	block := addr >> h.d.shift
	free, earliest := -1, -1
	for k, e := range h.wbuf {
		if !e.valid || e.drainsAt <= now {
			if free < 0 {
				free = k
			}
			continue
		}
		if e.block == block {
			return 0
		}
		if earliest < 0 || e.drainsAt < h.wbuf[earliest].drainsAt {
			earliest = k
		}
	}
	var wstall uint64
	if free < 0 {
		wstall = h.wbuf[earliest].drainsAt - now
		now, free = h.wbuf[earliest].drainsAt, earliest
	}
	h.retireAt = max(h.retireAt, now) + uint64(h.m.WriteRetireCycles)
	h.wbuf[free] = refWrite{block: block, drainsAt: h.retireAt, valid: true}
	h.D.Misses++
	if h.m.DCacheWriteAllocate {
		if hit, _, _, _ := h.d.access(addr); !hit {
			return wstall + h.fill(addr)
		}
	}
	h.B.Accesses++
	if hit, repl, _, _ := h.b.access(addr); !hit {
		h.B.Misses++
		if repl {
			h.B.ReplMisses++
		}
	}
	return wstall
}

func (h *refHierarchy) zeroStats() {
	h.I, h.D, h.B, h.L2, h.VictimHits = mem.Stats{}, mem.Stats{}, mem.Stats{}, mem.Stats{}, 0
}

func (h *refHierarchy) BeginEpoch() {
	h.zeroStats()
	for _, c := range []*refCache{h.i, h.d, h.b, h.l2} {
		if c != nil {
			c.seen = map[uint64]bool{}
		}
	}
}

func (h *refHierarchy) Reset() {
	h.zeroStats()
	for _, c := range []*refCache{h.i, h.d, h.b, h.l2} {
		if c != nil {
			c.reset()
		}
	}
	h.victim = h.victim[:0]
	h.streamValid = false
	clear(h.wbuf)
	h.retireAt = 0
}
