package cpu

import (
	"fmt"
	"sync"

	"repro/internal/arch"
)

// A Run is a compiled stretch of straight-line code: a fixed op sequence,
// with no taken branches, at a fixed phase within an i-cache line. Exec
// executes it with exactly the effect of calling Step on each of its
// instructions in turn (every Entry with Taken false), but steps only the
// instructions whose cost can depend on the memory system.
//
// Those are the run's events: the first instruction of each i-cache line
// (the fetch that may miss) and every load or store. A later instruction
// of the same line is a guaranteed hit on the hierarchy's fetch memo, and
// every other instruction costs what its cost row and the pairing state
// say. So the stall-free stretch from one event to the next is a pure
// function of the pairing state, which Compile tabulates over all
// 2 × gateMod states. The perfect-memory clock never stalls at all and
// gets one table for the whole run.
type Run struct {
	// n is the instruction count, fetches the number of fetch events;
	// the other n-fetches fetches are memo hits counted in bulk.
	n, fetches uint64
	// mem holds the offsets of the loads and stores, in order.
	mem []uint32
	// perfect is the whole run's transition on the perfect-memory clock.
	perfect [maxStates]trans
	events  []event
}

// maxStates bounds the pairing states: pairable × gate, gate < gateMod ≤ 3.
const maxStates = 6

// trans is one table entry: the cycles a stall-free stretch adds, shifted
// left by transShift, over the pairing state it leaves (see state).
type trans uint32

const (
	transShift = 3
	transMask  = 1<<transShift - 1
	// maxTransCycles bounds the cycles one trans can carry.
	maxTransCycles = 1<<(32-transShift) - 1
)

// Event kinds, a bit set: a load or store may also start a line.
const (
	evFetch uint8 = 1 << iota
	evLoad
	evStore
)

// event is one instruction Exec steps, plus the stall-free stretch up to
// the next event.
type event struct {
	off  uint32
	kind uint8
	// tab is the stretch's transition table. A few dozen distinct tables
	// serve every event of a sweep, so tables are interned per Model.
	tab *eventTab
}

// eventTab tabulates an event and the stall-free stretch after it: zero
// is the transition when the event did not stall; stalled, indexed by
// gate, when it did (the stall itself is added on top). A stall breaks
// pairing, so the stalled entry does not depend on pairable.
type eventTab struct {
	zero    [maxStates]trans
	stalled [maxStates / 2]trans
}

// state packs the pairing state into a table index.
func state(gate int, pairable bool) int {
	s := gate << 1
	if pairable {
		s |= 1
	}
	return s
}

// Len returns the run's instruction count.
func (r *Run) Len() int { return int(r.n) }

// MemOps returns the offsets, in order, of the run's loads and stores:
// the instructions whose effective addresses Exec reads from its data
// argument. The slice is shared and must not be modified.
func (r *Run) MemOps() []uint32 { return r.mem }

// Model is an interned issue model: the cost rows, the pairing gate and
// the i-cache line size, which are all a compiled Run depends on besides
// its ops and line phase. CPUs whose machines agree on them share one
// Model, and with it every Run compiled for it, so a run is compiled once
// per process however many programs, hosts and samples execute it.
type Model struct {
	issueModel
	mu   sync.Mutex
	runs map[string]*Run
	tabs map[eventTab]*eventTab
}

// models lists the interned Models; a process sees a handful, so a scan
// beats a map whose key would have to be boxed on every cpu.New.
var (
	modelsMu sync.Mutex
	models   []*Model
)

// internModel returns the Model for im, creating it on first use.
func internModel(im issueModel) *Model {
	modelsMu.Lock()
	defer modelsMu.Unlock()
	for _, m := range models {
		if m.issueModel == im {
			return m
		}
	}
	m := &Model{issueModel: im, runs: map[string]*Run{}, tabs: map[eventTab]*eventTab{}}
	models = append(models, m)
	return m
}

// Model returns the CPU's interned issue model, the one to compile runs
// for.
func (c *CPU) Model() *Model { return c.model }

// Compile returns the run of ops, placed 4 bytes apart from address addr,
// compiling it on first use. Only addr's offset within its i-cache line
// matters, so one Run serves every placement of the same code at the same
// line phase. Safe for concurrent use.
func (m *Model) Compile(addr uint64, ops []arch.Op) *Run {
	phase := addr & (1<<m.lineShift - 1)
	var buf [256]byte
	key := append(buf[:0], byte(phase), byte(phase>>8))
	for _, op := range ops {
		key = append(key, byte(op))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.runs[string(key)]
	if r == nil {
		r = m.compile(phase, ops)
		m.runs[string(key)] = r
	}
	return r
}

// compile builds the run of ops starting phase bytes into a line. The
// caller holds m.mu.
func (m *Model) compile(phase uint64, ops []arch.Op) *Run {
	r := &Run{n: uint64(len(ops))}
	for i, op := range ops {
		var kind uint8
		a := phase + 4*uint64(i)
		if i == 0 || a>>m.lineShift != (a-4)>>m.lineShift {
			kind = evFetch
			r.fetches++
		}
		switch op {
		case arch.OpLoad:
			kind |= evLoad
		case arch.OpStore:
			kind |= evStore
		}
		if kind&(evLoad|evStore) != 0 {
			r.mem = append(r.mem, uint32(i))
		}
		if kind != 0 {
			r.events = append(r.events, event{off: uint32(i), kind: kind})
		}
	}
	states := 2 * m.gateMod
	for s := 0; s < states; s++ {
		r.perfect[s] = m.advance(0, ops, s)
	}
	for k := range r.events {
		ev := &r.events[k]
		end := len(ops)
		if k+1 < len(r.events) {
			end = int(r.events[k+1].off)
		}
		var tab eventTab
		for s := 0; s < states; s++ {
			tab.zero[s] = m.advance(0, ops[ev.off:end], s)
		}
		issue := m.costs[clampOp(ops[ev.off])].issue
		for g := 0; g < m.gateMod; g++ {
			tab.stalled[g] = m.advance(issue, ops[ev.off+1:end], state(g, false))
		}
		if ev.tab = m.tabs[tab]; ev.tab == nil {
			ev.tab = &tab
			m.tabs[tab] = ev.tab
		}
	}
	return r
}

// advance runs ops through the issue model without memory stalls from
// pairing state s, starting from cycles already charged, and returns the
// cycles and the exit state as a table entry.
func (m *issueModel) advance(cycles uint64, ops []arch.Op, s int) trans {
	gate, pairable := s>>1, s&1 != 0
	for _, op := range ops {
		row := &m.costs[clampOp(op)]
		paired := false
		if pairable && row.pairsWith {
			if gate++; gate == m.gateMod {
				gate, paired = 0, true
			}
		}
		if paired {
			cycles += row.issue - 1
			pairable = false
		} else {
			cycles += row.issue
			pairable = row.startsPair
		}
	}
	if cycles > maxTransCycles {
		panic(fmt.Sprintf("cpu: run of %d instructions too long to compile", len(ops)))
	}
	return trans(cycles)<<transShift | trans(state(gate, pairable))
}

// clampOp maps unknown instruction classes to the table's last row.
func clampOp(op arch.Op) arch.Op {
	if op > arch.NumOps {
		return arch.NumOps
	}
	return op
}

// Exec executes run r placed at addr. data holds the effective addresses
// of the run's loads and stores in MemOps order. The effect on the metrics,
// the pairing state and the hierarchy is exactly that of calling Step on
// each instruction in turn: every event makes the same hierarchy calls at
// the same cycle, and the instruction and fetch counts are added in bulk.
// r must have been compiled for this CPU's Model.
func (c *CPU) Exec(r *Run, addr uint64, data []uint64) {
	h := c.h
	m := &c.metrics
	m.Instructions += r.n
	h.IStats.Accesses += r.n - r.fetches

	t := r.perfect[state(c.gatePerfect, c.pairablePerfect)]
	m.PerfectCycles += uint64(t >> transShift)
	c.gatePerfect, c.pairablePerfect = int(t&transMask)>>1, t&1 != 0

	s := state(c.gate, c.pairable)
	d := 0
	for i := range r.events {
		ev := &r.events[i]
		var stall uint64
		if ev.kind&evFetch != 0 {
			stall = h.FetchInstr(m.Cycles, addr+4*uint64(ev.off))
		}
		if ev.kind&evLoad != 0 {
			stall += h.Load(m.Cycles, data[d])
			d++
		} else if ev.kind&evStore != 0 {
			stall += h.Store(m.Cycles, data[d])
			d++
		}
		if stall == 0 {
			t = ev.tab.zero[s]
		} else {
			t = ev.tab.stalled[s>>1]
			m.Cycles += stall
		}
		m.Cycles += uint64(t >> transShift)
		s = int(t & transMask)
	}
	c.gate, c.pairable = s>>1, s&1 != 0
}
