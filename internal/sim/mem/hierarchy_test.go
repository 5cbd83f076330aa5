package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func testMachine() arch.Machine { return arch.DEC3000_600() }

func TestICacheHitAfterMiss(t *testing.T) {
	h := New(testMachine())
	if s := h.FetchInstr(0, 0x1000); s == 0 {
		t.Fatal("first fetch should miss and stall")
	}
	if s := h.FetchInstr(0, 0x1004); s != 0 {
		t.Fatalf("same-block fetch stalled %d cycles, want 0", s)
	}
	if h.IStats.Accesses != 2 || h.IStats.Misses != 1 {
		t.Fatalf("IStats = %+v, want 2 accesses 1 miss", h.IStats)
	}
}

func TestSequentialPrefetchReducesStall(t *testing.T) {
	m := testMachine()
	h := New(m)
	h.FetchInstr(0, 0x1000)             // misses, prefetches block at 0x1020
	stall := h.FetchInstr(1000, 0x1020) // demanded after the prefetch landed
	if stall != uint64(m.PrefetchHitCycles) {
		t.Fatalf("prefetched block stalled %d cycles, want %d", stall, m.PrefetchHitCycles)
	}
	// A consumer that catches up with an in-flight prefetch waits for it.
	h3 := New(m)
	h3.FetchInstr(0, 0x1000)
	if s := h3.FetchInstr(1, 0x1020); s <= uint64(m.PrefetchHitCycles) {
		t.Fatalf("in-flight prefetch consumed instantly: stall %d", s)
	}
	// A miss on a non-prefetched (non-sequential) block pays full cost.
	h2 := New(m)
	h2.FetchInstr(0, 0x1000)
	stall2 := h2.FetchInstr(0, 0x4000)
	if stall2 <= uint64(m.PrefetchHitCycles) {
		t.Fatalf("non-sequential miss stalled %d, want more than prefetch cost %d", stall2, m.PrefetchHitCycles)
	}
}

func TestPrefetchCountsAsBCacheAccess(t *testing.T) {
	h := New(testMachine())
	h.FetchInstr(0, 0x1000)
	// One demand fill plus one prefetch = two b-cache accesses, matching
	// the paper's footnote that a miss "may lead to another i-cache
	// block being prefetched, thus resulting in two b-cache accesses".
	if h.BStats.Accesses != 2 {
		t.Fatalf("BStats.Accesses = %d, want 2 (fill + prefetch)", h.BStats.Accesses)
	}
}

func TestReplacementMissClassification(t *testing.T) {
	m := testMachine()
	h := New(m)
	h.BeginEpoch() // misses are classified only inside an epoch
	// Two addresses that map to the same i-cache set: 8 KB apart.
	a, b := uint64(0x1000), uint64(0x1000+8*1024)
	h.FetchInstr(0, a) // cold miss
	h.FetchInstr(0, b) // cold miss, evicts a
	h.FetchInstr(0, a) // replacement miss
	if h.IStats.Misses != 3 {
		t.Fatalf("misses = %d, want 3", h.IStats.Misses)
	}
	if h.IStats.ReplMisses != 1 {
		t.Fatalf("replacement misses = %d, want 1", h.IStats.ReplMisses)
	}
}

func TestBeginEpochKeepsContentsClearsStats(t *testing.T) {
	h := New(testMachine())
	h.FetchInstr(0, 0x1000)
	h.BeginEpoch()
	if h.IStats.Accesses != 0 {
		t.Fatal("BeginEpoch must clear statistics")
	}
	if s := h.FetchInstr(0, 0x1000); s != 0 {
		t.Fatalf("block evicted by BeginEpoch: stall %d", s)
	}
	// A conflicting fetch after BeginEpoch is a *cold* miss for this
	// epoch even though the block was resident in a previous epoch.
	h.FetchInstr(0, 0x1000+8*1024)
	if h.IStats.ReplMisses != 0 {
		t.Fatalf("cross-epoch conflict counted as replacement miss: %+v", h.IStats)
	}
}

// TestClassificationOnlyInsideEpoch: before the first BeginEpoch, after a
// Reset and on a pooled hierarchy, misses count but stay cold on every
// level, and OnIMiss reports repl=false; inside an epoch the same pattern
// is classified.
func TestClassificationOnlyInsideEpoch(t *testing.T) {
	m := testMachine()
	// Two i-cache conflicts, two d-cache conflicts and two b-cache
	// conflicts, each revisiting its first block.
	a, b := uint64(0x1000), uint64(0x1000+8*1024)
	da, db := uint64(0x40000), uint64(0x40000+8*1024)
	ba, bb := uint64(0x800000), uint64(0x800000+uint64(m.BCacheBytes))
	pingPong := func(h *Hierarchy) (replFlags int) {
		h.OnIMiss = func(_ uint64, repl bool) {
			if repl {
				replFlags++
			}
		}
		for _, addr := range []uint64{a, b, a} {
			h.FetchInstr(0, addr)
		}
		for _, addr := range []uint64{da, db, da, ba, bb, ba} {
			h.Load(0, addr)
		}
		h.OnIMiss = nil
		return replFlags
	}
	closed := func(what string, h *Hierarchy) {
		t.Helper()
		flags := pingPong(h)
		if h.IStats.Misses != 3 || h.DStats.Misses != 6 {
			t.Errorf("%s: misses I %d D %d, want 3 and 6 counted", what, h.IStats.Misses, h.DStats.Misses)
		}
		if h.IStats.ReplMisses+h.DStats.ReplMisses+h.BStats.ReplMisses != 0 || flags != 0 {
			t.Errorf("%s: classified outside an epoch: I %+v D %+v B %+v, %d OnIMiss repl flags",
				what, h.IStats, h.DStats, h.BStats, flags)
		}
	}

	h := New(m)
	closed("before the first BeginEpoch", h)

	h.Reset()
	h.BeginEpoch()
	if flags := pingPong(h); flags != 1 || h.IStats.ReplMisses != 1 ||
		h.DStats.ReplMisses != 2 || h.BStats.ReplMisses != 1 {
		t.Errorf("inside an epoch: I %+v D %+v B %+v, %d OnIMiss repl flags; want 1, 2, 1 and 1",
			h.IStats, h.DStats, h.BStats, flags)
	}

	h.Reset()
	closed("after Reset", h)

	h.BeginEpoch()
	h.Release()
	for i := 0; i < 4; i++ {
		p := NewPooled(m)
		closed("pooled", p)
		p.BeginEpoch()
		p.Release()
	}
}

func TestResetMakesCachesCold(t *testing.T) {
	h := New(testMachine())
	h.FetchInstr(0, 0x1000)
	h.Load(0, 0x20000)
	h.Reset()
	if h.ICachePresent(0x1000) || h.DCachePresent(0x20000) {
		t.Fatal("Reset must empty the caches")
	}
}

func TestLoadReadAllocate(t *testing.T) {
	h := New(testMachine())
	if s := h.Load(0, 0x40000); s == 0 {
		t.Fatal("cold load must stall")
	}
	if s := h.Load(0, 0x40008); s != 0 {
		t.Fatalf("same-block load stalled %d", s)
	}
	if h.DStats.Accesses != 2 || h.DStats.Misses != 1 {
		t.Fatalf("DStats = %+v", h.DStats)
	}
}

func TestStoreDoesNotAllocateDCache(t *testing.T) {
	h := New(testMachine())
	h.Store(0, 0x50000)
	if h.DCachePresent(0x50000) {
		t.Fatal("write-through d-cache must not allocate on write miss")
	}
}

func TestWriteMerging(t *testing.T) {
	h := New(testMachine())
	h.Store(0, 0x60000) // new write-buffer entry: a miss
	h.Store(1, 0x60008) // same block, still buffered: merges, a hit
	if h.DStats.Accesses != 2 || h.DStats.Misses != 1 {
		t.Fatalf("DStats = %+v, want 2 accesses 1 miss (merge)", h.DStats)
	}
}

func TestWriteBufferFullStalls(t *testing.T) {
	m := testMachine()
	h := New(m)
	// Fill all entries with distinct blocks at time 0.
	for i := 0; i < m.WriteBufferEntries; i++ {
		if s := h.Store(0, uint64(0x70000+i*64)); s != 0 {
			t.Fatalf("store %d stalled %d with buffer not yet full", i, s)
		}
	}
	if s := h.Store(0, 0x90000); s == 0 {
		t.Fatal("store into a full write buffer must stall")
	}
	// Long after all entries drained, stores are free again.
	if s := h.Store(1_000_000, 0xa0000); s != 0 {
		t.Fatalf("store after drain stalled %d", s)
	}
}

// TestWriteBufferMergesIntoLiveEntry: a store merges into any entry still
// draining, the oldest included, and costs no stall.
func TestWriteBufferMergesIntoLiveEntry(t *testing.T) {
	w := newWriteBuffer(4, 5)
	for i := uint64(0); i < 4; i++ {
		if merged, stall := w.put(0, 100+i); merged || stall != 0 {
			t.Fatalf("store %d: merged %v stall %d into a buffer with room", i, merged, stall)
		}
	}
	// Entries drain at 5, 10, 15, 20. At cycle 4 all four are live.
	for i := uint64(0); i < 4; i++ {
		if merged, stall := w.put(4, 100+i); !merged || stall != 0 {
			t.Fatalf("block %d: merged %v stall %d, want a free merge", 100+i, merged, stall)
		}
	}
}

// TestWriteBufferFullStallDrainsOldest: a store into a full buffer waits
// for the oldest entry to drain, takes its slot, and retires after the
// newest.
func TestWriteBufferFullStallDrainsOldest(t *testing.T) {
	w := newWriteBuffer(4, 5)
	for i := uint64(0); i < 4; i++ {
		w.put(1, 100+i) // drain at 6, 11, 16, 21
	}
	if merged, stall := w.put(2, 200); merged || stall != 4 {
		t.Fatalf("full buffer: merged %v stall %d, want 4 (until the oldest drains at 6)", merged, stall)
	}
	// The oldest (block 100) is gone; the other three and 200 remain.
	if merged, _ := w.put(7, 100); merged {
		t.Fatal("store merged into the entry the full-buffer stall drained")
	}
	// That store stalled again, for block 101 (drains at 11), and took
	// its slot: 102, 103, 200 and 100 remain, the last draining at 31.
	for _, blk := range []uint64{102, 103, 200, 100} {
		if merged, _ := w.put(12, blk); !merged {
			t.Fatalf("block %d did not merge: it should still be draining", blk)
		}
	}
	if merged, _ := w.put(12, 101); merged {
		t.Fatal("block 101 merged after a stall displaced it")
	}
}

// TestWriteBufferDrainedEntryNeverMerges: once an entry's drain cycle has
// passed it takes no merge, even though it still occupies a slot.
func TestWriteBufferDrainedEntryNeverMerges(t *testing.T) {
	w := newWriteBuffer(4, 5)
	w.put(0, 100) // drains at 5
	w.put(0, 101) // drains at 10
	if merged, _ := w.put(5, 100); merged {
		t.Fatal("store merged into an entry that drained at its own cycle")
	}
	if merged, _ := w.put(9, 101); !merged {
		t.Fatal("store did not merge into an entry draining at 10")
	}
	if merged, stall := w.put(1000, 101); merged || stall != 0 {
		t.Fatalf("long after draining: merged %v stall %d", merged, stall)
	}
}

func TestBCacheMissGoesToMemory(t *testing.T) {
	m := testMachine()
	h := New(m)
	stall := h.Load(0, 0xb0000)
	if stall != uint64(m.MemoryCycles) {
		t.Fatalf("cold load through cold b-cache stalled %d, want memory latency %d", stall, m.MemoryCycles)
	}
	h.Reset()
	// Warm the b-cache, then evict the d-cache line only (d-cache is
	// 8 KB, b-cache 2 MB: pick a conflicting d-cache set that maps to a
	// different b-cache set).
	h.Load(0, 0xb0000)
	h.Load(0, 0xb0000+8*1024) // evicts from d-cache, stays in b-cache
	stall = h.Load(0, 0xb0000)
	if stall != uint64(m.BCacheHitCycles) {
		t.Fatalf("d-miss/b-hit stalled %d, want %d", stall, m.BCacheHitCycles)
	}
}

func TestStatsSubAndHits(t *testing.T) {
	a := Stats{Accesses: 10, Misses: 4, ReplMisses: 1}
	b := Stats{Accesses: 3, Misses: 1, ReplMisses: 0}
	d := a.Sub(b)
	if d != (Stats{Accesses: 7, Misses: 3, ReplMisses: 1}) {
		t.Fatalf("Sub = %+v", d)
	}
	if a.Hits() != 6 {
		t.Fatalf("Hits = %d", a.Hits())
	}
}

// Property: for any access sequence, misses <= accesses, replacement misses
// <= misses, and re-running the same sequence from Reset is deterministic.
func TestAccountingInvariants(t *testing.T) {
	f := func(addrs []uint16, loads []uint16) bool {
		run := func() (Stats, Stats, Stats) {
			h := New(testMachine())
			for _, a := range addrs {
				h.FetchInstr(0, uint64(a)*4)
			}
			for i, a := range loads {
				if i%2 == 0 {
					h.Load(uint64(i), uint64(a)*8)
				} else {
					h.Store(uint64(i), uint64(a)*8)
				}
			}
			return h.IStats, h.DStats, h.BStats
		}
		i1, d1, b1 := run()
		i2, d2, b2 := run()
		if i1 != i2 || d1 != d2 || b1 != b2 {
			return false
		}
		for _, s := range []Stats{i1, d1, b1} {
			if s.Misses > s.Accesses || s.ReplMisses > s.Misses {
				return false
			}
		}
		return i1.Accesses == uint64(len(addrs)) && d1.Accesses == uint64(len(loads))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: within one epoch, accessing the same address twice in a row
// never misses twice.
func TestNoConsecutiveMissSameBlock(t *testing.T) {
	f := func(addrs []uint16) bool {
		h := New(testMachine())
		for _, a := range addrs {
			h.Load(0, uint64(a)*4)
			before := h.DStats.Misses
			h.Load(0, uint64(a)*4)
			if h.DStats.Misses != before {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
