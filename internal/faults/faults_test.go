package faults

import (
	"math"
	"testing"

	"repro/internal/protocols/wire"
)

// frame returns a fresh minimum-size Ethernet frame with a recognizable
// payload pattern.
func frame() []byte {
	f := make([]byte, wire.EthMinFrame)
	for i := range f {
		f[i] = byte(i)
	}
	return f
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	var p Plan
	if p.Active() {
		t.Fatal("zero plan must be inactive")
	}
	in := New(p)
	for i := 0; i < 100; i++ {
		f := frame()
		fault := in.Decide(f)
		if fault.Drop || fault.Duplicate || fault.ExtraDelay != 0 {
			t.Fatalf("zero plan injected a fault on frame %d: %+v", i, fault)
		}
		for j, b := range f {
			if b != byte(j) {
				t.Fatalf("zero plan corrupted byte %d", j)
			}
		}
	}
	if in.Injected() != 0 || in.Frames != 100 {
		t.Fatalf("counters: %v", in.Counters)
	}
}

func TestDeterministicReplay(t *testing.T) {
	plan := Plan{Seed: 42, LossProb: 0.1, CorruptProb: 0.1, DupProb: 0.1,
		ReorderProb: 0.1, JitterProb: 0.1, JitterCycles: 500}
	run := func() ([]netsim_Fault, Counters) {
		in := New(plan)
		var faults []netsim_Fault
		for i := 0; i < 500; i++ {
			f := in.Decide(frame())
			faults = append(faults, netsim_Fault{f.Drop, f.Duplicate, f.ExtraDelay})
		}
		return faults, in.Counters
	}
	f1, c1 := run()
	f2, c2 := run()
	if c1 != c2 {
		t.Fatalf("counters diverged: %v vs %v", c1, c2)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("frame %d decision diverged: %+v vs %+v", i, f1[i], f2[i])
		}
	}
	if c1.Injected() == 0 {
		t.Fatal("active plan never injected over 500 frames")
	}
}

// netsim_Fault mirrors netsim.Fault as a comparable value for the replay
// test.
type netsim_Fault struct {
	drop, dup bool
	delay     uint64
}

func TestLossRateConverges(t *testing.T) {
	const n, p = 20000, 0.05
	in := New(Plan{Seed: 7, LossProb: p})
	for i := 0; i < n; i++ {
		in.Decide(frame())
	}
	got := float64(in.Dropped) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("empirical loss rate %.4f, want %.2f +- 0.01", got, p)
	}
}

func TestCorruptionFlipsPayloadBitsOnly(t *testing.T) {
	in := New(Plan{Seed: 3, CorruptProb: 1})
	for trial := 0; trial < 50; trial++ {
		f := frame()
		if fault := in.Decide(f); fault.Drop {
			t.Fatal("corruption-only plan dropped a frame")
		}
		flipped := 0
		for j := range f {
			if f[j] != byte(j) {
				if j < wire.EthHeaderLen {
					t.Fatalf("corruption touched Ethernet header byte %d", j)
				}
				flipped++
			}
		}
		// 3 single-bit flips; coincident positions can cancel, but at
		// least one byte must differ in practice for distinct positions.
		if flipped == 0 {
			t.Fatalf("trial %d: corruption flipped no bits", trial)
		}
	}
	if in.Corrupted != 50 {
		t.Fatalf("Corrupted = %d, want 50", in.Corrupted)
	}
}

func TestCorruptRuntFallsBackToWholeFrame(t *testing.T) {
	in := New(Plan{Seed: 9, CorruptProb: 1, CorruptBits: 8})
	runt := []byte{0xaa, 0xbb} // shorter than the Ethernet header
	in.Decide(runt)
	if runt[0] == 0xaa && runt[1] == 0xbb {
		t.Fatal("runt frame not corrupted")
	}
}

func TestForSampleDecorrelates(t *testing.T) {
	base := Plan{Seed: 1, LossProb: 0.2}
	a, b := New(base.ForSample(0)), New(base.ForSample(1))
	if a.Plan.Seed == b.Plan.Seed {
		t.Fatal("ForSample produced identical seeds")
	}
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.Decide(frame()).Drop == b.Decide(frame()).Drop {
			same++
		}
	}
	if same == n {
		t.Fatal("samples 0 and 1 made identical decisions — streams are correlated")
	}
}

func TestReorderAndJitterDelay(t *testing.T) {
	in := New(Plan{Seed: 5, ReorderProb: 1, ReorderDelayCycles: 1234})
	f := in.Decide(frame())
	if f.ExtraDelay != 1234 {
		t.Fatalf("reorder delay %d, want 1234", f.ExtraDelay)
	}
	jin := New(Plan{Seed: 5, JitterProb: 1, JitterCycles: 100})
	seen := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		d := jin.Decide(frame()).ExtraDelay
		if d > 100 {
			t.Fatalf("jitter %d exceeds JitterCycles", d)
		}
		seen[d] = true
	}
	if len(seen) < 10 {
		t.Fatalf("jitter produced only %d distinct delays in 200 frames", len(seen))
	}
}

func TestCountersAddAndInjected(t *testing.T) {
	a := Counters{Frames: 10, Dropped: 1, Corrupted: 2, Duplicated: 3, Reordered: 4, Jittered: 5}
	b := a
	a.Add(b)
	want := Counters{Frames: 20, Dropped: 2, Corrupted: 4, Duplicated: 6, Reordered: 8, Jittered: 10}
	if a != want {
		t.Fatalf("Add: %v, want %v", a, want)
	}
	if got := a.Injected(); got != 2+4+6+8+10 {
		t.Fatalf("Injected = %d", got)
	}
}

func TestMixAndZeroSeedSafe(t *testing.T) {
	if Mix(0, 0) == Mix(0, 1) || Mix(0, 0) == Mix(1, 0) {
		t.Fatal("Mix collides on trivial inputs")
	}
	// A seed whose splitmix image could be zero must not freeze xorshift.
	in := New(Plan{Seed: 0, LossProb: 0.5})
	drops := 0
	for i := 0; i < 100; i++ {
		if in.Decide(frame()).Drop {
			drops++
		}
	}
	if drops == 0 || drops == 100 {
		t.Fatalf("seed-0 generator degenerate: %d/100 drops", drops)
	}
}
