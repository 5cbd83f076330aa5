package cpu

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/machines"
	"repro/internal/sim/mem"
)

// runMachines are the machines FuzzExecRun covers: the issue widths of
// stepMachines plus every geometry of the machine matrix (associativity,
// line size, victim buffer, L2, write-allocate).
func runMachines(t testing.TB) []arch.Machine {
	ms := stepMachines(t)
	for _, m := range machines.Matrix() {
		ms = append(ms, m.Machine)
	}
	return ms
}

// runStream is a decoded FuzzExecRun input: an op stream cut into runs.
type runStream struct {
	start uint64
	ops   []arch.Op
	data  []uint64
	// cut[i] ends a run after op i; jump[i] then moves the next run
	// elsewhere through a taken branch, as a call or a block transition
	// does.
	cut, jump []bool
	target    []uint64
}

// decodeRuns turns fuzz bytes into a run stream. The first two bytes pick
// the start address and its line phase (misaligned ones included); then
// each byte pair is one instruction: every op class plus NumOps and one
// above it, cut and jump flags, and data and jump addresses over a few
// lines that collide in the L1 and the larger caches.
func decodeRuns(stream []byte, big uint64) runStream {
	const l1 = 64 * 1024 // a multiple of every L1 size in runMachines
	line := func(k byte) uint64 {
		return uint64(k&3)*64 + uint64(k>>2&1)*l1 + uint64(k>>3&1)*big
	}
	var rs runStream
	if len(stream) < 2 {
		return rs
	}
	rs.start = 0x10_0000 + uint64(stream[0])*4 + uint64(stream[1]&3)
	for i := 2; i+1 < len(stream); i += 2 {
		op, arg := stream[i], stream[i+1]
		rs.ops = append(rs.ops, arch.Op(op&0x3f)%(arch.NumOps+2))
		rs.data = append(rs.data, 0x80_0000+line(arg)+uint64(arg>>4&1)*8)
		rs.cut = append(rs.cut, op&0x80 != 0)
		rs.jump = append(rs.jump, op&0x40 != 0)
		rs.target = append(rs.target, 0x10_0000+line(arg>>2)+uint64(arg>>5)*4)
	}
	return rs
}

// execTwins drives the stream through two CPUs on identical hierarchies:
// ref steps every instruction with Step, live compiles each run and
// executes it with Exec. It fails the test at the first run after which
// the metrics or any hierarchy counter differ.
func execTwins(t *testing.T, m arch.Machine, rs runStream) {
	t.Helper()
	rh, lh := mem.NewPooled(m), mem.NewPooled(m)
	defer rh.Release()
	defer lh.Release()
	ref, live := New(rh), New(lh)
	model := live.Model()
	addr, from := rs.start, 0
	var data []uint64
	for i := range rs.ops {
		if !rs.cut[i] && i+1 < len(rs.ops) {
			continue
		}
		ops := rs.ops[from : i+1]
		data = data[:0]
		for k, op := range ops {
			e := Entry{Addr: addr + 4*uint64(k), Op: op}
			if op.AccessesMemory() {
				e.DataAddr = rs.data[from+k]
				data = append(data, e.DataAddr)
			}
			ref.Step(e)
		}
		live.Exec(model.Compile(addr, ops), addr, data)
		addr += 4 * uint64(len(ops))
		if rs.jump[i] {
			br := Entry{Addr: addr, Op: arch.OpBr, Taken: true}
			ref.Step(br)
			live.Step(br)
			addr = rs.target[i]
		}
		if got, want := live.Metrics(), ref.Metrics(); got != want {
			t.Fatalf("%+v, run ending at op %d: metrics %+v, stepped %+v", m, i, got, want)
		}
		if lh.IStats != rh.IStats || lh.DStats != rh.DStats || lh.BStats != rh.BStats ||
			lh.L2Stats != rh.L2Stats || lh.VictimHits != rh.VictimHits {
			t.Fatalf("%+v, run ending at op %d: hierarchy I%+v D%+v B%+v L2%+v V%d, stepped I%+v D%+v B%+v L2%+v V%d",
				m, i, lh.IStats, lh.DStats, lh.BStats, lh.L2Stats, lh.VictimHits,
				rh.IStats, rh.DStats, rh.BStats, rh.L2Stats, rh.VictimHits)
		}
		from = i + 1
	}
}

// FuzzExecRun compiles random op streams cut at random points and requires
// Exec to leave every counter exactly where stepping the same instructions
// one by one leaves it, on every machine in runMachines.
func FuzzExecRun(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 0x84, 5, 6, 7, 7, 8, 8, 9, 9, 0x10})
	f.Add([]byte{7, 2, 1, 0x11, 1, 0x22, 0xc2, 0x33, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x86, 0x44, 1, 0x55})
	long := []byte{3, 1} // long runs across several lines, cut every 23 ops
	for i := 0; i < 96; i++ {
		long = append(long, byte(i%10)|byte(i%23/22)<<7, byte(i*37))
	}
	f.Add(long)
	ms := runMachines(f)
	var big uint64
	for _, m := range ms {
		big = max(big, uint64(m.BCacheBytes), uint64(m.L2Bytes))
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		rs := decodeRuns(stream, big)
		for _, m := range ms {
			execTwins(t, m, rs)
		}
	})
}

// TestCompileInterns pins the interning contract: the same ops at the same
// line phase give the same Run whatever the line, and a different phase
// or a different issue model gives another.
func TestCompileInterns(t *testing.T) {
	ops := []arch.Op{arch.OpALU, arch.OpLoad, arch.OpALU, arch.OpStore}
	model := newCPU().Model()
	if newCPU().Model() != model {
		t.Fatal("two CPUs on one machine got different Models")
	}
	r := model.Compile(0x1004, ops)
	if model.Compile(0x9004, ops) != r {
		t.Fatal("same ops at the same line phase compiled twice")
	}
	if model.Compile(0x1008, ops) == r {
		t.Fatal("a different line phase shared a Run")
	}
	wide := arch.DEC3000_600()
	wide.IssueWidth = 4
	if New(mem.New(wide)).Model().Compile(0x1004, ops) == r {
		t.Fatal("a different issue model shared a Run")
	}
	if got := r.MemOps(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("MemOps = %v, want [1 3]", got)
	}
}
