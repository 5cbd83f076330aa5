package mem

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/machines"
)

// exercise drives h through a deterministic access mix covering every path:
// i-fetches (sequential and scattered), loads, stores, and epoch boundaries.
// It returns the final statistics triple.
func exercise(h *Hierarchy) [3]Stats {
	var now uint64
	step := func(stall uint64) { now += 1 + stall }
	for rep := 0; rep < 3; rep++ {
		for i := uint64(0); i < 4096; i++ {
			step(h.FetchInstr(now, 0x1000+i*4))
			if i%3 == 0 {
				step(h.Load(now, 0x80000+(i*97)%32768))
			}
			if i%5 == 0 {
				step(h.Store(now, 0x90000+(i*53)%16384))
			}
			if i%17 == 0 { // scattered fetch to force conflict misses
				step(h.FetchInstr(now, 0x400000+(i*1031)%262144))
			}
		}
		if rep == 1 {
			h.BeginEpoch()
		}
	}
	return [3]Stats{h.IStats, h.DStats, h.BStats}
}

// TestPooledHierarchyMatchesFresh is the pooling determinism invariant the
// experiment runner relies on: a recycled hierarchy must be observationally
// identical to a freshly built one, so simulation output cannot depend on
// which samples (or goroutines) previously used the pooled object.
func TestPooledHierarchyMatchesFresh(t *testing.T) {
	m := testMachine()
	want := exercise(New(m))

	// Dirty a hierarchy thoroughly, release it, and re-acquire. The pool is
	// process-global, so loop a few times to make reuse overwhelmingly
	// likely regardless of what other tests put there.
	for i := 0; i < 4; i++ {
		dirty := NewPooled(m)
		dirty.OnIMiss = func(uint64, bool) {}
		exercise(dirty)
		dirty.Release()

		h := NewPooled(m)
		if h.OnIMiss != nil {
			t.Fatal("recycled hierarchy kept its OnIMiss hook")
		}
		if got := exercise(h); got != want {
			t.Fatalf("pooled run %d diverged from fresh hierarchy:\ngot  %+v\nwant %+v", i, got, want)
		}
		h.Release()
	}

	// A machine sweep interleaves geometries: every matrix model in turn,
	// each hierarchy dirtied and released before the next model asks.
	// Each pool keeps to its own machine, and a recycled hierarchy of any
	// geometry replays the stream exactly as a fresh one does.
	models := machines.Matrix()
	fresh := make([]fullStats, len(models))
	for i, model := range models {
		fresh[i] = exerciseFull(New(model.Machine))
	}
	for round := 0; round < 3; round++ {
		for i, model := range models {
			h := NewPooled(model.Machine)
			if h.Machine() != model.Machine {
				t.Fatalf("round %d: NewPooled(%s) returned machine %+v", round, model.Name, h.Machine())
			}
			if h.OnIMiss != nil {
				t.Fatalf("round %d: recycled %s hierarchy kept its OnIMiss hook", round, model.Name)
			}
			if got := exerciseFull(h); got != fresh[i] {
				t.Fatalf("round %d: pooled %s diverged from fresh:\ngot  %+v\nwant %+v", round, model.Name, got, fresh[i])
			}
			h.OnIMiss = func(uint64, bool) {}
			h.Release()
		}
	}
}

// TestPooledGeometryMismatchBuildsFresh guards the machine-sweep case: a
// pooled hierarchy for one geometry must never be handed out for another.
func TestPooledGeometryMismatchBuildsFresh(t *testing.T) {
	a := testMachine()
	b := a
	b.ICacheBytes *= 2
	ha := NewPooled(a)
	ha.Release()
	hb := NewPooled(b)
	if hb.Machine() != b {
		t.Fatalf("NewPooled(b) returned machine %+v", hb.Machine())
	}
	if got := exercise(hb); got == exercise(New(a)) {
		t.Fatal("doubled i-cache produced identical stats — wrong geometry reused")
	}
}

// TestHierarchySteadyStateAllocFree pins the simulated access paths at zero
// allocations: the flat cache arrays and generation-stamped bookkeeping must
// not allocate once constructed, or per-sample GC pressure returns.
func TestHierarchySteadyStateAllocFree(t *testing.T) {
	h := New(arch.DEC3000_600())
	exercise(h) // warm: grows the seen-sets to steady state
	h.Reset()
	allocs := testing.AllocsPerRun(10, func() {
		exercise(h)
		h.Reset()
	})
	if allocs != 0 {
		t.Fatalf("hierarchy access path allocates %.1f objects per run, want 0", allocs)
	}
}
