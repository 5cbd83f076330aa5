// Package mem simulates the DEC 3000/600 memory hierarchy: direct-mapped
// split first-level caches, a 4-deep write-merging write buffer, a unified
// direct-mapped b-cache, and main memory, with the single-entry sequential
// instruction stream buffer that makes sequential code layouts profitable.
//
// The machine description (internal/arch) can extend the baseline with the
// what-if structures of the machine-model matrix, all disabled on the
// paper's machine: set-associative LRU first-level caches (Assoc > 1), a
// small fully-associative victim buffer behind the i-cache
// (VictimEntries), a unified mid-level cache between the first-level
// caches and the b-cache (L2Bytes), and a write-allocate d-cache policy
// (DCacheWriteAllocate). With every extension disabled the simulated
// behaviour is bit-identical to the original two-level model.
//
// Inside a measurement epoch the simulator classifies every miss as either
// a cold miss (first touch of the block within the epoch) or a replacement
// miss (the block was resident earlier in the epoch and was evicted by a
// conflicting block), matching the methodology behind Table 6 of the paper,
// which reads cache statistics from one traced invocation. BeginEpoch opens
// an epoch; New, NewPooled and Reset leave it closed. Outside an epoch a
// miss still counts, but as cold: nothing is recorded for classification,
// so the roundtrips before the traced one, and a host whose statistics are
// never read, pay no set insert per miss.
//
// The write buffer is a FIFO ring. Each unmerged store retires at least one
// cycle after the previous one, so the entries still draining are always
// the newest few: a merge looks back from the newest entry and stops at the
// first drained one, and a full buffer waits for its oldest entry. Drain
// times are cycles of the caller's clock, which must not run backwards
// between Resets.
package mem

// Stats counts the accesses observed by one level of the hierarchy during
// the current measurement epoch.
type Stats struct {
	// Accesses is the total number of references presented to this level.
	Accesses uint64
	// Misses is the number of references not satisfied by this level.
	// For the combined d-cache/write-buffer statistics a merged write
	// counts as a hit and an unmerged write as a miss, as in the paper.
	Misses uint64
	// ReplMisses is the subset of Misses whose block had been resident
	// earlier in the epoch: a conflict (replacement) miss rather than a
	// cold miss. Only misses inside an epoch (after BeginEpoch, before the
	// next Reset) are classified; outside one every miss is cold, so
	// ReplMisses stays 0 until BeginEpoch.
	ReplMisses uint64
}

// Hits returns Accesses - Misses.
func (s Stats) Hits() uint64 { return s.Accesses - s.Misses }

// Sub returns the element-wise difference s - o, useful for per-phase stats.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Accesses:   s.Accesses - o.Accesses,
		Misses:     s.Misses - o.Misses,
		ReplMisses: s.ReplMisses - o.ReplMisses,
	}
}

// cache is one set-associative (LRU) cache level; associativity 1 gives
// the DEC 3000/600's direct-mapped behaviour.
//
// Storage is flat and pointer-free: lines holds assoc block numbers per
// set (MRU first), and a line is valid only while its stamp matches the
// cache's current generation. Resetting the cache is a generation bump
// rather than a sweep, so a pooled hierarchy restarts cold in O(1) and the
// backing arrays never re-enter the garbage collector's scan set.
type cache struct {
	blockShift uint
	setMask    uint64
	assoc      uint64
	// lines[set*assoc .. set*assoc+assoc) are the resident block numbers
	// of a set in LRU order (index 0 within the stride is MRU). A slot is
	// valid only if stamps carries the current generation; valid slots
	// always form a prefix of the stride because fills insert at the
	// front.
	lines  []uint64
	stamps []uint32
	gen    uint32
	// seen records every block number missed in the open epoch, for
	// classifying later misses as cold vs. replacement. Nothing is
	// recorded while epoch is false.
	seen  u64set
	epoch bool
}

func newCache(sizeBytes, blockBytes, assoc int) *cache {
	if assoc < 1 {
		assoc = 1
	}
	sets := sizeBytes / blockBytes / assoc
	shift := uint(0)
	for 1<<shift != blockBytes {
		shift++
	}
	c := &cache{
		blockShift: shift,
		setMask:    uint64(sets - 1),
		assoc:      uint64(assoc),
		lines:      make([]uint64, sets*assoc),
		stamps:     make([]uint32, sets*assoc),
		gen:        1,
	}
	c.seen.init(1024)
	return c
}

func (c *cache) block(addr uint64) uint64 { return addr >> c.blockShift }

// present reports whether the block containing addr is resident, without
// touching statistics, contents, or LRU order.
func (c *cache) present(addr uint64) bool {
	b := c.block(addr)
	base := (b & c.setMask) * c.assoc
	for i := uint64(0); i < c.assoc; i++ {
		if c.stamps[base+i] != c.gen {
			return false
		}
		if c.lines[base+i] == b {
			return true
		}
	}
	return false
}

// access looks up the block containing addr, filling it on a miss (evicting
// the LRU way when the set is full). It reports whether the access hit and,
// on a miss inside an epoch, whether the miss is a replacement miss (block
// was resident earlier this epoch).
func (c *cache) access(addr uint64) (hit, repl bool) {
	b := addr >> c.blockShift
	base := (b & c.setMask) * c.assoc
	g := c.gen
	if c.assoc == 1 {
		// Direct-mapped fast path: one compare, no LRU bookkeeping.
		if c.stamps[base] == g && c.lines[base] == b {
			return true, false
		}
		c.lines[base] = b
		c.stamps[base] = g
		return false, c.classify(b)
	}
	lines := c.lines[base : base+c.assoc]
	stamps := c.stamps[base : base+c.assoc]
	for i := range lines {
		if stamps[i] != g {
			break
		}
		if lines[i] == b {
			// Move to the MRU position.
			copy(lines[1:i+1], lines[:i])
			lines[0] = b
			return true, false
		}
	}
	repl = c.classify(b)
	copy(lines[1:], lines[:c.assoc-1])
	copy(stamps[1:], stamps[:c.assoc-1])
	lines[0] = b
	stamps[0] = g
	return false, repl
}

// accessEvict is access plus eviction reporting: on a miss that displaces
// a resident block, it also returns the displaced block number. It exists
// for cache levels backed by a victim buffer (the evicted block is what
// parks there); it is kept separate from access so the common no-victim
// path stays lean.
func (c *cache) accessEvict(addr uint64) (hit, repl bool, evicted uint64, hasEvict bool) {
	b := addr >> c.blockShift
	base := (b & c.setMask) * c.assoc
	g := c.gen
	if c.assoc == 1 {
		if c.stamps[base] == g {
			if c.lines[base] == b {
				return true, false, 0, false
			}
			evicted, hasEvict = c.lines[base], true
		}
		c.lines[base] = b
		c.stamps[base] = g
		return false, c.classify(b), evicted, hasEvict
	}
	lines := c.lines[base : base+c.assoc]
	stamps := c.stamps[base : base+c.assoc]
	for i := range lines {
		if stamps[i] != g {
			break
		}
		if lines[i] == b {
			copy(lines[1:i+1], lines[:i])
			lines[0] = b
			return true, false, 0, false
		}
	}
	if stamps[c.assoc-1] == g {
		// The set is full: the LRU way is about to be displaced.
		evicted, hasEvict = lines[c.assoc-1], true
	}
	repl = c.classify(b)
	copy(lines[1:], lines[:c.assoc-1])
	copy(stamps[1:], stamps[:c.assoc-1])
	lines[0] = b
	stamps[0] = g
	return false, repl, evicted, hasEvict
}

// classify records the missed block b in the open epoch and reports whether
// it was missed before in that epoch (a replacement miss). Outside an epoch
// it records nothing and reports a cold miss.
func (c *cache) classify(b uint64) bool { return c.epoch && c.seen.add(b) }

// beginEpoch forgets the miss-classification history but keeps contents, and
// opens an epoch, so that a measurement starts with warm caches and misses
// are classified from here on.
func (c *cache) beginEpoch() {
	c.seen.clear()
	c.epoch = true
}

// reset empties the cache entirely (cold start) by bumping the validity
// generation; the backing arrays are reused untouched.
func (c *cache) reset() {
	c.gen++
	if c.gen == 0 {
		// The 32-bit generation wrapped: stale stamps could alias the new
		// generation, so sweep them once and restart at 1.
		clear(c.stamps)
		c.gen = 1
	}
	c.seen.clear()
	c.epoch = false
}

// u64set is a reusable open-addressing hash set of uint64 keys with
// generation-based O(1) clearing: a slot is live only while its generation
// matches the set's. Stale slots read as empty, which is consistent because
// an entire generation goes stale at once, so probe chains never dangle.
type u64set struct {
	keys []uint64
	gens []uint32
	gen  uint32
	n    int
	mask uint64
}

// init sizes the set; capacity must be a power of two.
func (s *u64set) init(capacity int) {
	s.keys = make([]uint64, capacity)
	s.gens = make([]uint32, capacity)
	s.gen = 1
	s.n = 0
	s.mask = uint64(capacity - 1)
}

// hash64 is a deterministic 64-bit mix (the murmur3 finalizer).
func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// add inserts b and reports whether it was already present.
func (s *u64set) add(b uint64) bool {
	if s.n >= len(s.keys)-len(s.keys)/4 {
		s.grow()
	}
	i := hash64(b) & s.mask
	for s.gens[i] == s.gen {
		if s.keys[i] == b {
			return true
		}
		i = (i + 1) & s.mask
	}
	s.keys[i] = b
	s.gens[i] = s.gen
	s.n++
	return false
}

func (s *u64set) grow() {
	oldKeys, oldGens, oldGen := s.keys, s.gens, s.gen
	s.init(len(oldKeys) * 2)
	for i, g := range oldGens {
		if g != oldGen {
			continue
		}
		b := oldKeys[i]
		j := hash64(b) & s.mask
		for s.gens[j] == s.gen {
			j = (j + 1) & s.mask
		}
		s.keys[j] = b
		s.gens[j] = s.gen
		s.n++
	}
}

// clear empties the set in O(1) by bumping the generation.
func (s *u64set) clear() {
	s.n = 0
	s.gen++
	if s.gen == 0 {
		clear(s.gens)
		s.gen = 1
	}
}

// victimBuffer is a small fully-associative LRU buffer of blocks recently
// evicted from a cache (Jouppi's victim cache, ISCA 1990). take removes a
// block on a hit — the classic swap back into the main cache — and put
// parks a newly evicted block at the MRU position, dropping the LRU one
// when full. Capacities are a handful of entries, so linear probes are
// cheaper than any indexing structure.
type victimBuffer struct {
	blocks []uint64
	n      int // live entries occupy blocks[:n]
}

func newVictimBuffer(entries int) *victimBuffer {
	return &victimBuffer{blocks: make([]uint64, entries)}
}

// take removes block b if present, reporting whether it was found.
func (v *victimBuffer) take(b uint64) bool {
	for i := 0; i < v.n; i++ {
		if v.blocks[i] == b {
			copy(v.blocks[i:], v.blocks[i+1:v.n])
			v.n--
			return true
		}
	}
	return false
}

// put inserts b at the MRU position, evicting the LRU entry when full.
func (v *victimBuffer) put(b uint64) {
	if v.n < len(v.blocks) {
		v.n++
	}
	copy(v.blocks[1:v.n], v.blocks[:v.n-1])
	v.blocks[0] = b
}

// reset empties the buffer.
func (v *victimBuffer) reset() { v.n = 0 }

// writeBuffer models the 21064's 4-deep write buffer. Each entry holds one
// cache block and merges subsequent stores to the same block; entries retire
// to the b-cache one at a time.
//
// The entries form a FIFO ring, newest at head. Every unmerged store moves
// retireAt up by at least retireCyc >= 1 cycles (arch.Validate), so drainsAt
// rises strictly from the oldest entry to the newest: the entries still
// draining at any cycle are the newest few. A merge therefore looks back
// from head and stops at the first drained entry, and the slot after head
// is always the oldest, the one a new entry replaces. An empty slot reads
// as drained at cycle 0.
type writeBuffer struct {
	entries   []wbEntry
	head      int    // index of the newest entry
	retireAt  uint64 // virtual cycle when the b-cache port frees up
	retireCyc uint64
}

type wbEntry struct {
	block    uint64
	drainsAt uint64 // entry leaves the buffer at this cycle
}

func newWriteBuffer(depth, retireCycles int) *writeBuffer {
	return &writeBuffer{
		entries:   make([]wbEntry, depth),
		retireCyc: uint64(retireCycles),
	}
}

// put records a store to block at time now. It reports whether the store
// merged into an entry still draining and how many cycles the CPU stalled
// waiting for a free entry.
func (w *writeBuffer) put(now, block uint64) (merged bool, stall uint64) {
	n := len(w.entries)
	for k, i := 0, w.head; k < n; k++ {
		e := &w.entries[i]
		if e.drainsAt <= now {
			break
		}
		if e.block == block {
			return true, 0
		}
		if i == 0 {
			i = n
		}
		i--
	}
	w.head++
	if w.head == n {
		w.head = 0
	}
	if oldest := w.entries[w.head].drainsAt; oldest > now {
		// Buffer full: stall until the oldest entry drains.
		stall = oldest - now
		now = oldest
	}
	if w.retireAt < now {
		w.retireAt = now
	}
	w.retireAt += w.retireCyc
	w.entries[w.head] = wbEntry{block: block, drainsAt: w.retireAt}
	return false, stall
}

// reset empties the buffer.
func (w *writeBuffer) reset() {
	clear(w.entries)
	w.head = 0
	w.retireAt = 0
}
