// Package cpu executes instruction streams against the simulated memory
// hierarchy and produces the paper's three headline metrics: CPI (cycles per
// instruction), iCPI (CPI under a perfect memory system), and mCPI (memory
// cycles per instruction, the difference of the two).
//
// The issue model follows the paper's CPU simulator: a dual-issue machine
// where pairs of independent simple operations issue together, every taken
// branch pays a fixed pipeline penalty, loads have a one-cycle use bubble,
// and integer multiplies occupy the non-pipelined multiplier.
package cpu

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/sim/mem"
)

// Entry is one dynamic instruction of a trace.
type Entry struct {
	// Addr is the virtual address of the instruction.
	Addr uint64
	// Op is the instruction class.
	Op arch.Op
	// Taken reports the outcome of a conditional branch; unconditional
	// branches and jumps are always taken.
	Taken bool
	// DataAddr is the effective address of a load or store.
	DataAddr uint64
}

// Metrics summarizes an executed instruction stream.
type Metrics struct {
	// Instructions is the dynamic trace length.
	Instructions uint64
	// Cycles is total execution time including memory stalls.
	Cycles uint64
	// PerfectCycles is execution time assuming every memory access hits.
	PerfectCycles uint64
}

// CPI returns total cycles per instruction.
func (m Metrics) CPI() float64 {
	if m.Instructions == 0 {
		return 0
	}
	return float64(m.Cycles) / float64(m.Instructions)
}

// ICPI returns the instruction CPI (perfect memory system).
func (m Metrics) ICPI() float64 {
	if m.Instructions == 0 {
		return 0
	}
	return float64(m.PerfectCycles) / float64(m.Instructions)
}

// MCPI returns the memory CPI: the average number of cycles an instruction
// stalls waiting for the memory system.
func (m Metrics) MCPI() float64 { return m.CPI() - m.ICPI() }

// Sub returns the metrics accumulated between snapshot o and m.
func (m Metrics) Sub(o Metrics) Metrics {
	return Metrics{
		Instructions:  m.Instructions - o.Instructions,
		Cycles:        m.Cycles - o.Cycles,
		PerfectCycles: m.PerfectCycles - o.PerfectCycles,
	}
}

func (m Metrics) String() string {
	return fmt.Sprintf("instr=%d cycles=%d CPI=%.2f iCPI=%.2f mCPI=%.2f",
		m.Instructions, m.Cycles, m.CPI(), m.ICPI(), m.MCPI())
}

// CPU consumes a stream of trace entries, charging issue cycles and memory
// stalls as it goes. It is deterministic: the same stream against the same
// hierarchy state always produces the same metrics.
type CPU struct {
	m arch.Machine
	h *mem.Hierarchy

	metrics Metrics

	// model is the machine's interned issue model (see Model).
	model *Model

	// pairable is true when the previous instruction occupies the first
	// slot of an issue pair and may absorb the current one for free.
	pairable bool
	// pairablePerfect tracks the same state for the perfect-memory model
	// (stalls break issue pairs in the real machine).
	pairablePerfect bool
	// gate and gatePerfect ration dual issue: the 21064's strict issue
	// rules and real data dependences mean only a fraction of adjacent
	// pairs actually dual-issue. Each counts pairing opportunities modulo
	// gateMod, and the opportunity that brings it back to zero pairs.
	gate        int
	gatePerfect int
}

// issueModel is everything about a machine that the issue model reads:
// the cost table, the pairing gate, and the i-cache line size that decides
// which instructions start a fetch.
type issueModel struct {
	// costs is the issue model as a table, one row per instruction class
	// plus a last row for unknown classes.
	costs [arch.NumOps + 1]opCost

	// gateMod is derived from Machine.IssueWidth: 3 on a dual-issue
	// machine like the 21064 (one in three pairable opportunities
	// actually pairs), 2 on a three-wide core, and 1 — every opportunity
	// pairs — at width four and beyond, modeling how wider decode and
	// fewer issue restrictions let more adjacent independent ops
	// co-issue. The dynamic pairing model stays two ops per cycle; width
	// buys a higher success rate, not wider bundles.
	gateMod int

	// lineShift is log2 of the i-cache line size in bytes.
	lineShift uint
}

// opCost is one row of the issue model.
type opCost struct {
	// issue is the base (perfect-memory) cost, and issueTaken the cost
	// when the entry is a taken branch.
	issue, issueTaken uint64
	// startsPair reports whether the op may open an issue pair, and
	// pairsWith whether it may occupy the second slot of a pair opened
	// by a simple integer op.
	startsPair, pairsWith bool
}

// New returns a CPU executing against hierarchy h.
func New(h *mem.Hierarchy) *CPU {
	m := h.Machine()
	im := issueModel{gateMod: 3, lineShift: h.ILineShift()}
	switch {
	case m.IssueWidth >= 4:
		im.gateMod = 1
	case m.IssueWidth == 3:
		im.gateMod = 2
	}
	taken := 1 + uint64(m.TakenBranchCycles)
	for op := range im.costs {
		row := opCost{issue: 1}
		switch arch.Op(op) {
		case arch.OpALU, arch.OpNop:
			row.startsPair, row.pairsWith = true, true
		case arch.OpLoad:
			// One-cycle load-use bubble on average.
			row.issue, row.pairsWith = 2, true
		case arch.OpStore:
			row.pairsWith = true
		case arch.OpCondBr:
			row.issueTaken = taken
		case arch.OpBr, arch.OpJump:
			row.issue = taken
		case arch.OpMul:
			row.issue = uint64(m.MulCycles)
		}
		if row.issueTaken == 0 {
			row.issueTaken = row.issue
		}
		im.costs[op] = row
	}
	return &CPU{m: m, h: h, model: internModel(im)}
}

// Hierarchy returns the attached memory hierarchy.
func (c *CPU) Hierarchy() *mem.Hierarchy { return c.h }

// Machine returns the machine description.
func (c *CPU) Machine() arch.Machine { return c.m }

// Metrics returns the counters accumulated so far.
func (c *CPU) Metrics() Metrics { return c.metrics }

// Now returns the current virtual cycle.
func (c *CPU) Now() uint64 { return c.metrics.Cycles }

// AdvanceCycles moves virtual time forward without executing instructions
// (e.g. while the CPU spins waiting for an interrupt or sleeps in the idle
// loop). The time is charged to both the real and perfect clocks so it does
// not perturb CPI accounting of traced code.
func (c *CPU) AdvanceCycles(n uint64) {
	c.metrics.Cycles += n
	c.metrics.PerfectCycles += n
	c.pairable, c.pairablePerfect = false, false
}

// Reset zeroes the metrics and issue state; the hierarchy is left untouched.
// The pairing gates keep counting across a reset.
func (c *CPU) Reset() {
	c.metrics = Metrics{}
	c.pairable, c.pairablePerfect = false, false
}

// Step executes one instruction.
func (c *CPU) Step(e Entry) {
	c.metrics.Instructions++

	op := e.Op
	if op > arch.NumOps {
		op = arch.NumOps
	}
	row := &c.model.costs[op]
	issue := row.issue
	if e.Taken {
		issue = row.issueTaken
	}

	// Perfect-memory clock.
	paired := false
	if c.pairablePerfect && row.pairsWith {
		if c.gatePerfect++; c.gatePerfect == c.model.gateMod {
			c.gatePerfect, paired = 0, true
		}
	}
	if paired {
		// Issues in the same cycle as the previous instruction: the
		// incremental perfect cost is issue-1 (a load's use bubble
		// still applies).
		c.metrics.PerfectCycles += issue - 1
		c.pairablePerfect = false
	} else {
		c.metrics.PerfectCycles += issue
		c.pairablePerfect = row.startsPair
	}

	// Real clock: instruction fetch first.
	stall := c.h.FetchInstr(c.metrics.Cycles, e.Addr)
	switch op {
	case arch.OpLoad:
		stall += c.h.Load(c.metrics.Cycles, e.DataAddr)
	case arch.OpStore:
		stall += c.h.Store(c.metrics.Cycles, e.DataAddr)
	}
	paired = false
	if c.pairable && stall == 0 && row.pairsWith {
		if c.gate++; c.gate == c.model.gateMod {
			c.gate, paired = 0, true
		}
	}
	if paired {
		c.metrics.Cycles += issue - 1
		c.pairable = false
	} else {
		c.metrics.Cycles += issue + stall
		c.pairable = row.startsPair && stall == 0
	}
}

// Run executes a recorded trace and returns the metrics accumulated by it
// (excluding anything executed before).
func (c *CPU) Run(trace []Entry) Metrics {
	before := c.metrics
	for _, e := range trace {
		c.Step(e)
	}
	return c.metrics.Sub(before)
}
