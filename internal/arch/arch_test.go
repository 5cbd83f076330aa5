package arch

import (
	"errors"
	"testing"
)

func TestDEC3000_600Valid(t *testing.T) {
	m := DEC3000_600()
	if err := m.Validate(); err != nil {
		t.Fatalf("reference machine invalid: %v", err)
	}
	if got := m.InstrPerBlock(); got != 8 {
		t.Errorf("InstrPerBlock = %d, want 8 (32-byte blocks, 4-byte instructions)", got)
	}
	if got := m.CyclesPerMicrosecond(); got != 175 {
		t.Errorf("CyclesPerMicrosecond = %v, want 175", got)
	}
}

func TestMicrosecondsFor(t *testing.T) {
	m := DEC3000_600()
	if got := m.MicrosecondsFor(175); got != 1 {
		t.Errorf("175 cycles = %v us, want 1", got)
	}
	if got := m.MicrosecondsFor(0); got != 0 {
		t.Errorf("0 cycles = %v us, want 0", got)
	}
}

func TestValidateRejectsBadMachines(t *testing.T) {
	cases := []struct {
		name  string
		mod   func(*Machine)
		field string
	}{
		{"zero clock", func(m *Machine) { m.ClockMHz = 0 }, "ClockMHz"},
		{"zero issue", func(m *Machine) { m.IssueWidth = 0 }, "IssueWidth"},
		{"zero instr size", func(m *Machine) { m.InstrBytes = 0 }, "InstrBytes"},
		{"block not multiple of instr", func(m *Machine) { m.InstrBytes = 24; m.BlockBytes = 32 }, "BlockBytes"},
		{"block not power of two", func(m *Machine) { m.BlockBytes = 48; m.InstrBytes = 4 }, "BlockBytes"},
		{"icache not multiple of block", func(m *Machine) { m.ICacheBytes = 1000 }, "ICacheBytes"},
		{"icache sets not power of two", func(m *Machine) { m.ICacheBytes = 96 * 32 }, "ICacheBytes"},
		{"dcache not multiple of block", func(m *Machine) { m.DCacheBytes = 33 }, "DCacheBytes"},
		{"bcache not multiple of block", func(m *Machine) { m.BCacheBytes = 100 }, "BCacheBytes"},
		{"no write buffer", func(m *Machine) { m.WriteBufferEntries = 0 }, "WriteBufferEntries"},
		{"zero assoc", func(m *Machine) { m.Assoc = 0 }, "ICacheBytes"},
		{"assoc exceeds blocks", func(m *Machine) { m.ICacheBytes = 2 * 32; m.Assoc = 4 }, "ICacheBytes"},
		{"blocks not divisible by assoc", func(m *Machine) { m.Assoc = 3 }, "ICacheBytes"},
		{"zero bcache hit latency", func(m *Machine) { m.BCacheHitCycles = 0 }, "BCacheHitCycles"},
		{"zero prefetch latency", func(m *Machine) { m.PrefetchHitCycles = 0 }, "PrefetchHitCycles"},
		{"zero memory latency", func(m *Machine) { m.MemoryCycles = 0 }, "MemoryCycles"},
		{"zero retire latency", func(m *Machine) { m.WriteRetireCycles = 0 }, "WriteRetireCycles"},
		{"zero mul latency", func(m *Machine) { m.MulCycles = 0 }, "MulCycles"},
		{"negative branch penalty", func(m *Machine) { m.TakenBranchCycles = -1 }, "TakenBranchCycles"},
		{"negative victim capacity", func(m *Machine) { m.VictimEntries = -1 }, "VictimEntries"},
		{"victim without hit latency", func(m *Machine) { m.VictimEntries = 8 }, "VictimHitCycles"},
		{"l2 without assoc", func(m *Machine) { m.L2Bytes = 256 * 1024; m.L2HitCycles = 6 }, "L2Bytes"},
		{"l2 without hit latency", func(m *Machine) { m.L2Bytes = 256 * 1024; m.L2Assoc = 4 }, "L2HitCycles"},
		{"l2 sets not power of two", func(m *Machine) { m.L2Bytes = 96 * 32; m.L2Assoc = 1; m.L2HitCycles = 6 }, "L2Bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := DEC3000_600()
			tc.mod(&m)
			err := m.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			var ge *GeometryError
			if !errors.As(err, &ge) {
				t.Fatalf("Validate returned %T, want *GeometryError", err)
			}
			if ge.Field != tc.field {
				t.Errorf("error blames field %q, want %q (%v)", ge.Field, tc.field, err)
			}
		})
	}
}

func TestValidateAcceptsVariantGeometries(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Machine)
	}{
		{"2-way L1", func(m *Machine) { m.Assoc = 2 }},
		{"8-way L1", func(m *Machine) { m.Assoc = 8 }},
		{"64B lines", func(m *Machine) { m.BlockBytes = 64 }},
		{"128B lines", func(m *Machine) { m.BlockBytes = 128 }},
		{"victim buffer", func(m *Machine) { m.VictimEntries = 8; m.VictimHitCycles = 2 }},
		{"mid-level cache", func(m *Machine) { m.L2Bytes = 256 * 1024; m.L2Assoc = 4; m.L2HitCycles = 6 }},
		{"write-allocate", func(m *Machine) { m.DCacheWriteAllocate = true }},
		{"free taken branches", func(m *Machine) { m.TakenBranchCycles = 0 }},
		{"future266", func(m *Machine) { *m = Future266() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := DEC3000_600()
			tc.mod(&m)
			if err := m.Validate(); err != nil {
				t.Errorf("Validate rejected %s: %v", tc.name, err)
			}
		})
	}
}

func TestOpClassification(t *testing.T) {
	branches := []Op{OpCondBr, OpBr, OpJump}
	for _, op := range branches {
		if !op.IsBranch() {
			t.Errorf("%v.IsBranch() = false, want true", op)
		}
	}
	nonBranches := []Op{OpALU, OpLoad, OpStore, OpMul, OpNop}
	for _, op := range nonBranches {
		if op.IsBranch() {
			t.Errorf("%v.IsBranch() = true, want false", op)
		}
	}
	if !OpLoad.AccessesMemory() || !OpStore.AccessesMemory() {
		t.Error("loads and stores must access memory")
	}
	if OpALU.AccessesMemory() || OpBr.AccessesMemory() {
		t.Error("ALU ops and branches must not access memory")
	}
}

func TestOpString(t *testing.T) {
	if OpALU.String() != "alu" || OpJump.String() != "jump" {
		t.Errorf("unexpected mnemonics: %v %v", OpALU, OpJump)
	}
	if Op(200).String() == "" {
		t.Error("out-of-range op must still stringify")
	}
}

// MicrosecondsFor converts a cycle count to microseconds on this machine.
func (m Machine) MicrosecondsFor(cycles uint64) float64 {
	return float64(cycles) / m.ClockMHz
}
