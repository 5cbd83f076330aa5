//go:build !race

// The race detector's sync.Pool drops a random share of what is put back,
// so recycling is not steady there.

package core

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// sampleBytesLimit bounds what one steady-state TCP/IP sample plus one RPC
// sample allocate, at quality {2, 2, 1} on dec3000 ALL. Measured with
// Go 1.24 on linux/amd64: 68,088 bytes with the LANCE windows, receive
// buffers and coverage recycled, and 153,096 bytes when every device
// allocates its window and receive buffers afresh and copies every frame
// twice. The limit leaves 4 KB of headroom for runtime map and slice
// layout, less than a coverage built from empty for either sample.
// Both this byte count and the size-class checks below are tied to the
// Go 1.24 runtime: another toolchain's map layout or size classes can
// move them without the program regressing, so re-measure the limit
// (the test logs the figure) when the toolchain changes.
const sampleBytesLimit = 68_088 + 4<<10

// TestSteadyStateSampleAllocation: once warm, building a TCP/IP and an RPC
// host pair, running one short sample on each and releasing them allocates
// no LANCE window, no receive-pool buffer and no coverage: those come back
// from the previous sample. Windows (12,368 bytes) and receive buffers
// (1,664) are counted in their allocation size classes, where nothing else
// of a steady-state sample lands; the coverage is held by the byte limit.
func TestSteadyStateSampleAllocation(t *testing.T) {
	var cfgs []Config
	for _, kind := range []StackKind{StackTCPIP, StackRPC} {
		cfg := DefaultConfig(kind, ALL)
		cfg.Warmup, cfg.Measured, cfg.Samples = 2, 2, 1
		cfgs = append(cfgs, cfg)
	}
	samples := func() {
		for _, cfg := range cfgs {
			if _, err := runSample(cfg, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The recycled buffers live in sync.Pools. Collection empties them,
	// and a goroutine moved to another P misses what it put back; with
	// neither, every sample after the first reuses the previous one's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	samples() // build the programs and fill the pools
	samples()
	const n = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		samples()
	}
	runtime.ReadMemStats(&after)
	for _, c := range []struct {
		what string
		size uint32
	}{{"LANCE window", 12368}, {"receive buffer", 1664}} {
		if got := classMallocs(&after, c.size) - classMallocs(&before, c.size); got != 0 {
			t.Errorf("%d samples allocated %d objects of a %s's size class", n, got, c.what)
		}
	}
	perPair := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes per TCP/IP + RPC sample", perPair)
	if perPair > sampleBytesLimit {
		t.Errorf("a TCP/IP + RPC sample allocates %d bytes, limit %d", perPair, sampleBytesLimit)
	}
}

// classMallocs returns how many objects of n bytes' allocation size class
// ms counts.
func classMallocs(ms *runtime.MemStats, n uint32) uint64 {
	for _, c := range ms.BySize {
		if c.Size >= n {
			return c.Mallocs
		}
	}
	return 0
}
