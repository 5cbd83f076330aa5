package mem_test

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/machines"
	"repro/internal/sim/mem"
)

// iMiss is one OnIMiss notification.
type iMiss struct {
	addr uint64
	repl bool
}

// hierTwins drives one hierarchy and the reference through the same
// accesses and compares them after each.
type hierTwins struct {
	t            *testing.T
	m            arch.Machine
	h            *mem.Hierarchy
	ref          *refHierarchy
	inEpoch      bool
	got, refMiss []iMiss // OnIMiss notifications of the current step
}

func (w *hierTwins) hook() {
	w.h.OnIMiss = func(addr uint64, repl bool) { w.got = append(w.got, iMiss{addr, repl}) }
}

// check compares every counter, the step's stall and its i-miss
// notifications. Inside an epoch replacement misses must equal the
// reference's; outside one they must be 0 and every notification cold.
func (w *hierTwins) check(step int, what string, stall, refStall uint64) {
	w.t.Helper()
	fail := func(format string, args ...any) {
		w.t.Helper()
		w.t.Fatalf("%+v, step %d (%s): %s", w.m, step, what, fmt.Sprintf(format, args...))
	}
	if stall != refStall {
		fail("stall %d, reference %d", stall, refStall)
	}
	pairs := []struct {
		name      string
		got, want mem.Stats
	}{{"I", w.h.IStats, w.ref.I}, {"D", w.h.DStats, w.ref.D}, {"B", w.h.BStats, w.ref.B}, {"L2", w.h.L2Stats, w.ref.L2}}
	for _, p := range pairs {
		if !w.inEpoch {
			if p.got.ReplMisses != 0 {
				fail("%s classified %d replacement misses outside an epoch", p.name, p.got.ReplMisses)
			}
			p.want.ReplMisses = 0
		}
		if p.got != p.want {
			fail("%s stats %+v, reference %+v (epoch open: %v)", p.name, p.got, p.want, w.inEpoch)
		}
	}
	if w.h.VictimHits != w.ref.VictimHits {
		fail("victim hits %d, reference %d", w.h.VictimHits, w.ref.VictimHits)
	}
	if len(w.got) != len(w.refMiss) {
		fail("%d OnIMiss calls, reference %d", len(w.got), len(w.refMiss))
	}
	for k, want := range w.refMiss {
		want.repl = want.repl && w.inEpoch
		if w.got[k] != want {
			fail("OnIMiss %+v, reference %+v", w.got[k], want)
		}
	}
	w.got, w.refMiss = w.got[:0], w.refMiss[:0]
}

// fuzzAddr maps two input bytes to an address: an offset within a 2 KB
// stretch (sequential fetches, same-block stores and loads), one of 16
// tags a multiple of every L1 size apart (set conflicts beyond the victim
// buffer's 8 entries) and one of 4 tags a multiple of every L2 and b-cache
// size apart.
func fuzzAddr(a1, a2 byte, big uint64) uint64 {
	const l1 = 64 * 1024
	return 0x10_0000 + uint64(a1)*8 + uint64(a2&0xf)*l1 + uint64(a2>>4&3)*big
}

// replay runs one decoded stream on machine m. Each access takes three
// bytes: the op (low 3 bits), a sub-field (bits 3-4) and the cycles that
// pass before it (bits 5-7), then two address bytes. Op 0-2 fetches one
// instruction, 3 loads, 4 stores, 5 fetches a sequential stretch of
// 8 to 32 instructions, 6 opens an epoch, and 7 resets the hierarchy
// (sub-field 0 or 1) or swaps it for a pooled one (2 or 3).
func replay(t *testing.T, m arch.Machine, stream []byte, big uint64) {
	w := &hierTwins{t: t, m: m, h: mem.NewPooled(m), ref: newRefHierarchy(m)}
	defer func() { w.h.Release() }()
	w.hook()
	w.ref.onIMiss = func(addr uint64, repl bool) { w.refMiss = append(w.refMiss, iMiss{addr, repl}) }
	var now uint64
	for step := 0; step+2 < len(stream); step += 3 {
		op, sub := stream[step]&7, stream[step]>>3&3
		now += uint64(stream[step] >> 5)
		addr := fuzzAddr(stream[step+1], stream[step+2], big)
		switch op {
		case 0, 1, 2:
			addr &^= 3
			s, rs := w.h.FetchInstr(now, addr), w.ref.FetchInstr(now, addr)
			w.check(step, "fetch", s, rs)
			now += s
		case 3:
			s, rs := w.h.Load(now, addr), w.ref.Load(now, addr)
			w.check(step, "load", s, rs)
			now += s
		case 4:
			s, rs := w.h.Store(now, addr), w.ref.Store(now, addr)
			w.check(step, "store", s, rs)
			now += s
		case 5:
			addr &^= 3
			for k := uint64(0); k < 8*uint64(sub+1); k++ {
				s, rs := w.h.FetchInstr(now, addr+4*k), w.ref.FetchInstr(now, addr+4*k)
				w.check(step, "sequential fetch", s, rs)
				now += 1 + s
			}
		case 6:
			w.h.BeginEpoch()
			w.ref.BeginEpoch()
			w.inEpoch = true
			w.check(step, "BeginEpoch", 0, 0)
		case 7:
			if sub < 2 {
				w.h.Reset()
			} else {
				w.h.Release()
				w.h = mem.NewPooled(m)
				w.hook()
			}
			w.ref.Reset()
			w.inEpoch = false
			now = uint64(stream[step+1]) // the clock may restart after a Reset
			w.check(step, "Reset", 0, 0)
		}
	}
}

// FuzzHierarchyMatchesReference holds mem.Hierarchy to refHierarchy on
// random fetch, load and store streams with a clock that never runs
// backwards between Resets, on every geometry of the machine matrix, with
// epochs opened, hierarchies reset and pooled ones swapped in at random:
// stalls and every counter must agree after every access, and miss
// classification must agree inside an epoch and be absent outside one.
func FuzzHierarchyMatchesReference(f *testing.F) {
	// Conflicting fetches, loads and stores before and inside an epoch.
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 3, 8, 0, 3, 8, 1, 3, 8, 0, 6, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 4, 0, 0, 4, 1, 0, 4, 2, 0, 4, 3, 0, 4, 4, 0})
	// Sequential stretches (memo and stream buffer) across a pooled swap.
	f.Add([]byte{0x1d, 0, 0, 0x25, 64, 0, 6, 0, 0, 0x1d, 0, 0, 0x17, 9, 0, 0x1d, 0, 0x10, 0xe5, 0, 0x20, 6, 0, 0})
	// A ping-pong over 12 conflicting blocks (victim buffer overflow)
	// and bursts of stores that fill the write buffer.
	var pingPong []byte
	for i := 0; i < 36; i++ {
		pingPong = append(pingPong, 0, byte(i%3), byte(i%12))
		if i == 12 {
			pingPong = append(pingPong, 6, 0, 0)
		}
		pingPong = append(pingPong, 4, byte(i*5), byte(i%7))
	}
	f.Add(pingPong)
	ms := machines.Matrix()
	var big uint64
	for _, m := range ms {
		big = max(big, uint64(m.Machine.BCacheBytes), uint64(m.Machine.L2Bytes))
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		for _, m := range ms {
			replay(t, m.Machine, stream, big)
		}
	})
}
