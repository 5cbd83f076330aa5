// Package arch describes the simulated machine: a DEC Alpha 21064-class
// dual-issue RISC CPU with a split first-level cache, a unified board-level
// cache (b-cache) and a small write-merging write buffer, as found in the
// DEC 3000/600 workstations the paper measures.
//
// The package is purely descriptive: it defines the instruction classes that
// code models are written in (package internal/code) and the machine
// parameters the simulators consume (package internal/sim). Nothing here
// executes.
package arch

import "fmt"

// Op is the class of a simulated instruction. The cycle accounting of the
// paper distinguishes instructions only by their memory behaviour and a few
// long-latency arithmetic classes, so the ISA is abstracted to those classes
// rather than full Alpha opcodes.
type Op uint8

const (
	// OpALU is a single-cycle integer operation (add, sub, logical, shift,
	// compare, lda). The bulk of protocol code falls in this class.
	OpALU Op = iota
	// OpLoad reads memory through the d-cache.
	OpLoad
	// OpStore writes memory through the write buffer (the d-cache is
	// write-through and allocates on read misses only).
	OpStore
	// OpCondBr is a conditional branch. Cost depends on whether it is
	// taken; the simulator learns the outcome from the trace.
	OpCondBr
	// OpBr is an unconditional PC-relative branch (always taken).
	OpBr
	// OpJump is an indirect jump (jsr/ret through a register). Always
	// taken, and additionally defeats sequential instruction prefetch.
	OpJump
	// OpMul is an integer multiply; the 21064 multiplier is not pipelined
	// with the rest of the integer unit and costs ~21 cycles.
	OpMul
	// OpNop is a scheduling or alignment filler.
	OpNop

	// NumOps is the number of instruction classes; valid ops are below it.
	NumOps
)

var opNames = [NumOps]string{"alu", "load", "store", "condbr", "br", "jump", "mul", "nop"}

// String returns the lower-case mnemonic class name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsBranch reports whether the op redirects control flow when taken.
func (o Op) IsBranch() bool { return o == OpCondBr || o == OpBr || o == OpJump }

// AccessesMemory reports whether the op issues a data-memory access.
func (o Op) AccessesMemory() bool { return o == OpLoad || o == OpStore }

// Machine collects the parameters of the simulated machine. The reference
// point is the paper's DEC 3000/600; the optional fields (victim buffer,
// mid-level cache, write-allocate policy, wider issue) describe the
// derived what-if models of the internal/machines matrix.
//
// All sizes are in bytes and all latencies in CPU cycles of this machine's
// own clock. The zero value is not useful; use DEC3000_600 (the paper's
// platform) or derive a variant from it. The struct is comparable on
// purpose — the program-build cache and the hierarchy pool key on it — so
// every field must stay a scalar.
type Machine struct {
	// ClockMHz is the CPU clock in MHz; it converts cycle counts to
	// microseconds. Default 175 (the 21064 in the DEC 3000/600), so one
	// microsecond is 175 cycles.
	ClockMHz float64

	// IssueWidth is the superscalar issue width in instructions per
	// cycle. Default 2 (the 21064's dual issue). Widths 1 and 2
	// reproduce the paper's issue model exactly; 3 relaxes the pairing
	// gate and 4+ idealizes it entirely (every pairable adjacent
	// instruction issues free) — see internal/sim/cpu.
	IssueWidth int

	// TakenBranchCycles is the pipeline penalty in cycles charged for
	// each taken branch or jump; 0 models a perfect front end. Default 4
	// (the paper's CPU simulator "adds a fixed penalty for each taken
	// branch").
	TakenBranchCycles int

	// MulCycles is the latency in cycles of an integer multiply.
	// Default 21: the 21064 multiplier is not pipelined with the rest of
	// the integer unit.
	MulCycles int

	// InstrBytes is the encoded size of one instruction in bytes.
	// Default 4 (Alpha).
	InstrBytes int

	// ICacheBytes and DCacheBytes are the split first-level cache sizes
	// in bytes (default 8 KB each), BCacheBytes the unified board-level
	// cache (default 2 MB). Each size must be a multiple of BlockBytes
	// and yield a power-of-two set count.
	ICacheBytes int
	DCacheBytes int
	BCacheBytes int

	// BlockBytes is the cache block size in bytes used by every level.
	// Default 32 (8 instructions per i-cache block); must be a power of
	// two and a multiple of InstrBytes.
	BlockBytes int

	// Assoc is the set associativity of the first-level caches with LRU
	// replacement. Default 1 (the 21064 is direct-mapped); higher values
	// model the what-if ablation of absorbing conflict misses in
	// hardware. The b-cache stays direct-mapped.
	Assoc int

	// WriteBufferEntries is the depth of the write buffer; each entry
	// holds one cache block and performs write merging. Default 4.
	WriteBufferEntries int

	// BCacheHitCycles is the stall in cycles observed by the CPU for a
	// first-level miss that hits in the b-cache. Default 10 (the DEC
	// 3000/600's measured ~10 cycles).
	BCacheHitCycles int

	// PrefetchHitCycles is the reduced stall in cycles for an i-cache
	// miss whose block was sequentially prefetched into the stream
	// buffer. Default 5. The 21064 fetches ahead on the b-cache path,
	// which is why the paper's sequential (bipartite/linear) layouts beat
	// micro-positioning.
	PrefetchHitCycles int

	// MemoryCycles is the stall in cycles for an access that misses in
	// the b-cache and goes to main memory. Default 40.
	MemoryCycles int

	// WriteRetireCycles is how long in cycles the b-cache is busy
	// retiring one write-buffer entry; a store issued while the buffer is
	// full stalls until an entry drains. Default 6.
	WriteRetireCycles int

	// VictimEntries is the capacity of a small fully-associative victim
	// buffer behind the i-cache (Jouppi, ISCA 1990): blocks evicted from
	// the i-cache park there, and a later miss that finds its block in
	// the buffer swaps it back for VictimHitCycles instead of going to
	// the fill path. Default 0 (no victim buffer, the DEC 3000/600).
	VictimEntries int

	// VictimHitCycles is the stall in cycles for an i-cache miss
	// satisfied by the victim buffer; must be >= 1 when VictimEntries is
	// nonzero. Default 0.
	VictimHitCycles int

	// L2Bytes, when nonzero, inserts a unified set-associative mid-level
	// cache between the first-level caches and the b-cache, making the
	// hierarchy three-deep (L1 -> L2 -> b-cache -> memory). First-level
	// fills and prefetches probe it; write-buffer retirement bypasses it
	// (write-through to the b-cache). Default 0 (no mid-level cache).
	L2Bytes int

	// L2Assoc is the mid-level cache's LRU set associativity; must be
	// >= 1 when L2Bytes is nonzero. Default 0.
	L2Assoc int

	// L2HitCycles is the stall in cycles for a first-level miss that
	// hits in the mid-level cache; must be >= 1 and should sit between
	// the L1 hit (free) and BCacheHitCycles. Default 0.
	L2HitCycles int

	// DCacheWriteAllocate, when true, switches the d-cache from the
	// 21064's write-through-no-allocate policy to write-allocate: an
	// unmerged store miss fetches the block into the d-cache and the CPU
	// observes the fill latency (read-for-ownership), instead of the
	// miss retiring invisibly behind the write buffer. Subsequent loads
	// of stored blocks then hit. Default false (the paper's machine).
	DCacheWriteAllocate bool
}

// DEC3000_600 is the machine measured in the paper: a 175 MHz Alpha 21064
// with 8 KB direct-mapped split i/d caches, 32-byte blocks, a 4-deep
// write-merging write buffer and a 2 MB direct-mapped b-cache.
func DEC3000_600() Machine {
	return Machine{
		ClockMHz:           175,
		Assoc:              1,
		IssueWidth:         2,
		TakenBranchCycles:  4,
		MulCycles:          21,
		InstrBytes:         4,
		ICacheBytes:        8 * 1024,
		DCacheBytes:        8 * 1024,
		BCacheBytes:        2 * 1024 * 1024,
		BlockBytes:         32,
		WriteBufferEntries: 4,
		BCacheHitCycles:    10,
		PrefetchHitCycles:  5,
		MemoryCycles:       40,
		WriteRetireCycles:  6,
	}
}

// Future266 is the machine the paper's concluding remarks point at: "we
// now also have in our lab a low-cost 266 MHz processor with a 66 MB/s
// memory system". The CPU is 1.5x faster while the memory is slower in
// absolute terms, so every memory-latency parameter grows by roughly the
// product of the two — the widening processor/memory gap that makes the
// paper's mCPI-reducing techniques increasingly important.
func Future266() Machine {
	m := DEC3000_600()
	m.ClockMHz = 266
	m.BCacheHitCycles = 23   // 10 cycles at 175 MHz scaled by clock and bandwidth
	m.PrefetchHitCycles = 8  // stream-buffer fill scales with the b-cache port
	m.MemoryCycles = 92      // 40 cycles' worth of DRAM time, 1.5x slower, at 266 MHz
	m.WriteRetireCycles = 14 // write port scales with the b-cache
	return m
}

// CyclesPerMicrosecond converts between the virtual-time domains.
func (m Machine) CyclesPerMicrosecond() float64 { return m.ClockMHz }

// InstrPerBlock is the number of instructions held by one i-cache block.
func (m Machine) InstrPerBlock() int { return m.BlockBytes / m.InstrBytes }

// GeometryError reports a malformed Machine description: the field at
// fault and why its value cannot describe simulatable hardware. Validate
// returns it so callers assembling machine matrices can attribute a bad
// model to the exact parameter.
type GeometryError struct {
	// Field names the offending Machine field.
	Field string
	// Reason explains the constraint the value violates.
	Reason string
}

// Error renders the failure with its field.
func (e *GeometryError) Error() string { return fmt.Sprintf("arch: %s: %s", e.Field, e.Reason) }

// geoErr builds a *GeometryError with a formatted reason.
func geoErr(field, format string, args ...any) *GeometryError {
	return &GeometryError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// powerOfTwo reports whether n is a positive power of two.
func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// validateCacheLevel checks one cache level's geometry: the size must be a
// whole number of power-of-two-many sets of assoc blocks each. The
// power-of-two set count is load-bearing, not cosmetic — the simulator
// maps addresses to sets with a mask (internal/sim/mem), so a non-power-
// of-two count would silently alias sets instead of distributing them.
func validateCacheLevel(name string, sizeBytes, blockBytes, assoc int) *GeometryError {
	if sizeBytes <= 0 || sizeBytes%blockBytes != 0 {
		return geoErr(name, "size %d not a positive multiple of block size %d", sizeBytes, blockBytes)
	}
	blocks := sizeBytes / blockBytes
	if assoc < 1 {
		return geoErr(name, "associativity must be >= 1, got %d", assoc)
	}
	if assoc > blocks {
		return geoErr(name, "associativity %d exceeds the %d blocks the cache holds", assoc, blocks)
	}
	if blocks%assoc != 0 {
		return geoErr(name, "%d blocks not divisible by associativity %d", blocks, assoc)
	}
	if sets := blocks / assoc; !powerOfTwo(sets) {
		return geoErr(name, "set count %d is not a power of two", sets)
	}
	return nil
}

// Validate checks the machine description for internal consistency,
// returning a *GeometryError naming the first offending field. Every model
// the simulator is handed must pass: the cache simulator indexes sets with
// shift-and-mask arithmetic, so it requires power-of-two block sizes and
// set counts, and every latency the CPU can observe must be at least one
// cycle.
func (m Machine) Validate() error {
	switch {
	case m.ClockMHz <= 0:
		return geoErr("ClockMHz", "clock must be positive, got %v", m.ClockMHz)
	case m.IssueWidth < 1:
		return geoErr("IssueWidth", "issue width must be >= 1, got %d", m.IssueWidth)
	case m.TakenBranchCycles < 0:
		return geoErr("TakenBranchCycles", "penalty must be >= 0, got %d", m.TakenBranchCycles)
	case m.MulCycles < 1:
		return geoErr("MulCycles", "multiply latency must be >= 1, got %d", m.MulCycles)
	case m.InstrBytes <= 0:
		return geoErr("InstrBytes", "instruction size must be positive, got %d", m.InstrBytes)
	case !powerOfTwo(m.BlockBytes):
		return geoErr("BlockBytes", "block size %d is not a power of two", m.BlockBytes)
	case m.BlockBytes%m.InstrBytes != 0:
		return geoErr("BlockBytes", "block size %d not a multiple of instruction size %d", m.BlockBytes, m.InstrBytes)
	case m.WriteBufferEntries < 1:
		return geoErr("WriteBufferEntries", "write buffer needs at least one entry, got %d", m.WriteBufferEntries)
	case m.BCacheHitCycles < 1:
		return geoErr("BCacheHitCycles", "b-cache hit latency must be >= 1, got %d", m.BCacheHitCycles)
	case m.PrefetchHitCycles < 1:
		return geoErr("PrefetchHitCycles", "prefetch hit latency must be >= 1, got %d", m.PrefetchHitCycles)
	case m.MemoryCycles < 1:
		return geoErr("MemoryCycles", "memory latency must be >= 1, got %d", m.MemoryCycles)
	case m.WriteRetireCycles < 1:
		return geoErr("WriteRetireCycles", "write retire latency must be >= 1, got %d", m.WriteRetireCycles)
	case m.VictimEntries < 0:
		return geoErr("VictimEntries", "victim buffer capacity must be >= 0, got %d", m.VictimEntries)
	case m.VictimEntries > 0 && m.VictimHitCycles < 1:
		return geoErr("VictimHitCycles", "victim hit latency must be >= 1 when a victim buffer is present, got %d", m.VictimHitCycles)
	}
	if err := validateCacheLevel("ICacheBytes", m.ICacheBytes, m.BlockBytes, m.Assoc); err != nil {
		return err
	}
	if err := validateCacheLevel("DCacheBytes", m.DCacheBytes, m.BlockBytes, m.Assoc); err != nil {
		return err
	}
	if err := validateCacheLevel("BCacheBytes", m.BCacheBytes, m.BlockBytes, 1); err != nil {
		return err
	}
	if m.L2Bytes > 0 {
		if err := validateCacheLevel("L2Bytes", m.L2Bytes, m.BlockBytes, m.L2Assoc); err != nil {
			return err
		}
		if m.L2HitCycles < 1 {
			return geoErr("L2HitCycles", "mid-level hit latency must be >= 1 when a mid-level cache is present, got %d", m.L2HitCycles)
		}
	}
	return nil
}
