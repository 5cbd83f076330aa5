package trace

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sim/cpu"
)

func TestReplayAcrossGeometries(t *testing.T) {
	// A trace that cycles through more blocks than a small cache holds
	// must run slower on the small cache.
	tr := &Trace{}
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < 3000; i++ {
			tr.Entries = append(tr.Entries, cpu.Entry{Op: arch.OpALU, Addr: 0x100000 + uint64(i*4)})
		}
	}
	small := arch.DEC3000_600()
	small.ICacheBytes = 4 * 1024
	big := arch.DEC3000_600()
	big.ICacheBytes = 64 * 1024

	ms, _, err := Replay(tr, small)
	if err != nil {
		t.Fatal(err)
	}
	mb, _, err := Replay(tr, big)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Cycles <= mb.Cycles {
		t.Fatalf("small cache (%d cycles) not slower than big (%d)", ms.Cycles, mb.Cycles)
	}
	if mb.MCPI() > 0.01 {
		t.Fatalf("12KB loop should fit a 64KB cache: mCPI %.3f", mb.MCPI())
	}

	bad := arch.DEC3000_600()
	bad.ICacheBytes = 12345 // not a power-of-two multiple of the block size
	if _, _, err := Replay(tr, bad); err == nil {
		t.Fatal("invalid machine accepted")
	}
}
