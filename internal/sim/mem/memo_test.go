package mem

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/machines"
)

// matrixMachine returns the machine-matrix model called name.
func matrixMachine(t *testing.T, name string) arch.Machine {
	t.Helper()
	model, err := machines.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return model.Machine
}

// setStride returns the distance at which d-cache addresses share a set.
func setStride(m arch.Machine) uint64 { return uint64(m.DCacheBytes / max(m.Assoc, 1)) }

// TestLoadAfterConflictingLoadMisses: once loads of conflicting blocks
// have evicted a block from its set, a load of it misses, although it was
// the memoized block before them.
func TestLoadAfterConflictingLoadMisses(t *testing.T) {
	for _, name := range []string{"dec3000", "l1-2way", "modern"} {
		m := matrixMachine(t, name)
		h := New(m)
		a, stride := uint64(0x10000), setStride(m)
		h.Load(0, a)
		h.Load(0, a+8) // a memo hit
		for k := uint64(1); k <= uint64(max(m.Assoc, 1)); k++ {
			h.Load(0, a+k*stride)
		}
		misses := h.DStats.Misses
		if s := h.Load(0, a); s == 0 || h.DStats.Misses != misses+1 {
			t.Errorf("%s: load of an evicted block stalled %d with %d new misses, want a miss", name, s, h.DStats.Misses-misses)
		}
		if s := h.Load(0, a+16); s != 0 {
			t.Errorf("%s: load of the block just filled stalled %d, want a hit", name, s)
		}
	}
}

// TestLoadAfterWriteAllocateFillMisses: a write-allocate store fills the
// d-cache, so unmerged stores to conflicting blocks evict the memoized
// block, and the next load of it misses.
func TestLoadAfterWriteAllocateFillMisses(t *testing.T) {
	for _, name := range []string{"walloc", "modern"} {
		m := matrixMachine(t, name)
		h := New(m)
		a, stride := uint64(0x10000), setStride(m)
		var now uint64
		now += 1 + h.Load(now, a)
		for k := uint64(1); k <= uint64(max(m.Assoc, 1)); k++ {
			now += 1 + h.Store(now, a+k*stride)
			if want := (a + k*stride) >> h.shift; h.lastDBlock != want {
				t.Fatalf("%s: memo %#x after a write-allocate fill of block %#x", name, h.lastDBlock, want)
			}
		}
		misses := h.DStats.Misses
		if s := h.Load(now, a); s == 0 || h.DStats.Misses != misses+1 {
			t.Errorf("%s: load after conflicting write-allocate fills stalled %d with %d new misses, want a miss", name, s, h.DStats.Misses-misses)
		}
	}
}

// TestBlockMemoLifetime: Reset and a pooled reuse drop both memos, while
// BeginEpoch keeps them, since the cache contents stay warm.
func TestBlockMemoLifetime(t *testing.T) {
	m := arch.DEC3000_600()
	a := uint64(0x10000)
	h := New(m)
	h.FetchInstr(0, a)
	h.Load(0, a)
	iBlock, dBlock := h.lastIBlock, h.lastDBlock
	if iBlock != a>>h.shift || dBlock != a>>h.shift {
		t.Fatalf("memos %#x, %#x after a fetch and a load of block %#x", iBlock, dBlock, a>>h.shift)
	}
	h.BeginEpoch()
	if h.lastIBlock != iBlock || h.lastDBlock != dBlock {
		t.Fatal("BeginEpoch dropped a memo")
	}
	if h.FetchInstr(0, a) != 0 || h.Load(0, a) != 0 || h.IStats.Misses+h.DStats.Misses != 0 {
		t.Fatal("fetch or load of a memoized block missed after BeginEpoch")
	}
	h.Reset()
	if h.lastIBlock != noBlock || h.lastDBlock != noBlock {
		t.Fatal("Reset kept a memo")
	}
	if h.Load(0, a) == 0 || h.DStats.Misses != 1 {
		t.Fatal("load after Reset hit")
	}

	// A geometry no other test pools, so only this test's hierarchy can
	// come back. sync.Pool may drop a Put (it does at random under the race
	// detector), so retry until one is reused.
	m.WriteBufferEntries = 3
	for try := 0; try < 100; try++ {
		h := NewPooled(m)
		h.FetchInstr(0, a)
		h.Load(0, a)
		h.Release()
		g := NewPooled(m)
		reused := g == h
		if reused && (g.lastIBlock != noBlock || g.lastDBlock != noBlock) {
			t.Fatal("a pooled reuse kept a memo")
		}
		g.Release()
		if reused {
			return
		}
	}
	t.Skip("sync.Pool never handed a released hierarchy back")
}

// TestBlockMemosMatchBypass drives two hierarchies of every matrix machine
// through the same conflicting fetches, loads and stores, one with both
// memos bypassed (emptied before every fetch and load, so each takes the
// cache lookup): every stall and every counter must agree.
func TestBlockMemosMatchBypass(t *testing.T) {
	for _, model := range machines.Matrix() {
		m := model.Machine
		h, bypass := New(m), New(m)
		var now, addr, iHits, dHits uint64
		x := uint64(1)
		for i := 0; i < 20000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if x>>24%2 == 0 {
				// Four blocks per set, in 16 tags 64 KB apart, a
				// multiple of every L1 size: plenty of set conflicts.
				addr = 0x100000 + x%4*uint64(m.BlockBytes) + x>>8%16*64*1024
			}
			// Half the accesses stay in the previous block.
			addr = addr&^uint64(m.BlockBytes-1) + x>>12%8*4
			var s, bs uint64
			switch x >> 20 % 8 {
			case 0, 1, 2:
				if addr>>h.shift == h.lastIBlock {
					iHits++
				}
				bypass.lastIBlock = noBlock
				s, bs = h.FetchInstr(now, addr), bypass.FetchInstr(now, addr)
			case 3, 4, 5:
				if addr>>h.shift == h.lastDBlock {
					dHits++
				}
				bypass.lastDBlock = noBlock
				s, bs = h.Load(now, addr), bypass.Load(now, addr)
			case 6:
				s, bs = h.Store(now, addr), bypass.Store(now, addr)
			default:
				if i == 5000 {
					h.BeginEpoch()
					bypass.BeginEpoch()
				}
			}
			if s != bs {
				t.Fatalf("%s: access %d stalled %d, %d with the memos bypassed", model.Name, i, s, bs)
			}
			now += 1 + s
		}
		got := [4]Stats{h.IStats, h.DStats, h.BStats, h.L2Stats}
		want := [4]Stats{bypass.IStats, bypass.DStats, bypass.BStats, bypass.L2Stats}
		if got != want || h.VictimHits != bypass.VictimHits {
			t.Errorf("%s: stats %+v (victim hits %d), with the memos bypassed %+v (%d)",
				model.Name, got, h.VictimHits, want, bypass.VictimHits)
		}
		if iHits == 0 || dHits == 0 || h.DStats.Misses == 0 {
			t.Errorf("%s: stream took %d i-memo and %d d-memo hits with %d d-misses, want some of each",
				model.Name, iHits, dHits, h.DStats.Misses)
		}
	}
}
