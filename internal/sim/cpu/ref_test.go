package cpu

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/machines"
	"repro/internal/sim/mem"
)

// refCPU is the issue model as it was written before New precomputed it
// into a table: a per-instruction switch for the issue cost and a
// variable-divisor modulo for the pairing gate. FuzzStep holds the live
// CPU to it cycle for cycle.
type refCPU struct {
	m       arch.Machine
	h       *mem.Hierarchy
	metrics Metrics

	pairable, pairablePerfect bool
	pairGate, pairGatePerfect int
	gateMod                   int
}

func newRefCPU(h *mem.Hierarchy) *refCPU {
	m := h.Machine()
	gate := 3
	switch {
	case m.IssueWidth >= 4:
		gate = 1
	case m.IssueWidth == 3:
		gate = 2
	}
	return &refCPU{m: m, h: h, gateMod: gate}
}

func (c *refCPU) issueCycles(op arch.Op, taken bool) (cycles uint64, startsPair bool) {
	switch op {
	case arch.OpALU, arch.OpNop:
		return 1, true
	case arch.OpLoad:
		return 2, false
	case arch.OpStore:
		return 1, false
	case arch.OpCondBr:
		if taken {
			return 1 + uint64(c.m.TakenBranchCycles), false
		}
		return 1, false
	case arch.OpBr, arch.OpJump:
		return 1 + uint64(c.m.TakenBranchCycles), false
	case arch.OpMul:
		return uint64(c.m.MulCycles), false
	default:
		return 1, false
	}
}

func refPairsWith(op arch.Op) bool {
	switch op {
	case arch.OpALU, arch.OpNop, arch.OpLoad, arch.OpStore:
		return true
	default:
		return false
	}
}

func (c *refCPU) Step(e Entry) {
	c.metrics.Instructions++

	issue, startsPair := c.issueCycles(e.Op, e.Taken)

	if c.pairablePerfect && refPairsWith(e.Op) {
		c.pairGatePerfect++
	}
	if c.pairablePerfect && refPairsWith(e.Op) && c.pairGatePerfect%c.gateMod == 0 {
		c.metrics.PerfectCycles += issue - 1
		c.pairablePerfect = false
	} else {
		c.metrics.PerfectCycles += issue
		c.pairablePerfect = startsPair
	}

	stall := c.h.FetchInstr(c.metrics.Cycles, e.Addr)
	if e.Op.AccessesMemory() {
		if e.Op == arch.OpLoad {
			stall += c.h.Load(c.metrics.Cycles, e.DataAddr)
		} else {
			stall += c.h.Store(c.metrics.Cycles, e.DataAddr)
		}
	}
	if c.pairable && stall == 0 && refPairsWith(e.Op) {
		c.pairGate++
	}
	if c.pairable && stall == 0 && refPairsWith(e.Op) && c.pairGate%c.gateMod == 0 {
		c.metrics.Cycles += issue - 1
		c.pairable = false
	} else {
		c.metrics.Cycles += issue + stall
		c.pairable = startsPair && stall == 0
	}
}

// stepMachines are the issue widths FuzzStep covers: the paper's
// dual-issue machine, a three-wide variant, and the four-wide modern core
// (which also changes the branch and multiply costs).
func stepMachines(t testing.TB) []arch.Machine {
	wide3 := arch.DEC3000_600()
	wide3.IssueWidth = 3
	modern, err := machines.ByName("modern")
	if err != nil {
		t.Fatal(err)
	}
	return []arch.Machine{arch.DEC3000_600(), wide3, modern.Machine}
}

// decodeEntry turns two fuzz bytes into a trace entry: every op class or
// an unknown one, either branch outcome, and instruction and data
// addresses over a few lines that collide in small caches.
func decodeEntry(op, addr byte) Entry {
	const conflict = 64 * 1024 // a multiple of every stepMachines L1 size
	line := func(k byte) uint64 { return uint64(k&3)*64 + uint64(k>>2&1)*conflict }
	class := arch.Op(op) % (arch.NumOps + 1)
	if class == arch.NumOps {
		class = arch.NumOps | arch.Op(op) // unknown classes up to 255
	}
	return Entry{
		Addr:     0x10_0000 + line(addr) + uint64(op>>5&3)*4,
		Op:       class,
		Taken:    op&0x80 != 0,
		DataAddr: 0x80_0000 + line(addr>>4) + uint64(addr>>3&1)*8,
	}
}

// FuzzStep runs one random entry stream through the reference issue model
// and the live one on each machine in stepMachines, and requires equal
// Metrics after every step.
func FuzzStep(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 0x83, 5, 6, 7, 7, 8, 8, 9})
	ms := stepMachines(f)
	f.Fuzz(func(t *testing.T, stream []byte) {
		for _, m := range ms {
			ref, live := newRefCPU(mem.New(m)), New(mem.New(m))
			for i := 0; i+1 < len(stream); i += 2 {
				e := decodeEntry(stream[i], stream[i+1])
				ref.Step(e)
				live.Step(e)
				if got, want := live.Metrics(), ref.metrics; got != want {
					t.Fatalf("width %d, step %d (%+v): metrics %+v, reference %+v", m.IssueWidth, i/2, e, got, want)
				}
			}
		}
	})
}
