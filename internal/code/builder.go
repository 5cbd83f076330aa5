package code

import (
	"fmt"

	"repro/internal/arch"
)

// Builder authors a Function with a compact fluent API. Protocol packages
// use it to write the code models of their hot-path functions; instruction
// mixes are expressed in bulk ("12 ALU ops, 4 loads from the TCB") rather
// than one instruction at a time.
type Builder struct {
	f    *Function
	cur  *Block
	offs map[string]uint32
	errs []error
}

// NewBuilder starts a function named name with the given bipartite class.
func NewBuilder(name string, class Class) *Builder {
	return &Builder{f: &Function{Name: name, Class: class}}
}

// Frame emits a standard stack-frame prologue that saves nRegs registers
// (one stack-pointer adjust plus nRegs stores) and arranges the matching
// epilogue. Call it once, before the first block's body. Cloning's
// specialization may skip the prologue instructions.
func (b *Builder) Frame(nRegs int) *Builder {
	blk := b.block()
	blk.Instrs = append(blk.Instrs, Instr{Op: arch.OpALU, Prologue: true})
	for i := 0; i < nRegs; i++ {
		blk.Instrs = append(blk.Instrs, Instr{Op: arch.OpStore, data: stackID, Off: uint32(8 * i), Prologue: true})
	}
	for i := 0; i < nRegs; i++ {
		b.f.Epilogue = append(b.f.Epilogue, Instr{Op: arch.OpLoad, data: stackID, Off: uint32(8 * i)})
	}
	b.f.Epilogue = append(b.f.Epilogue, Instr{Op: arch.OpALU})
	return b
}

// Block starts (or continues) the block with the given label. The first
// block created is the function entry. If the previous block has no
// explicit terminator, it falls through (TermJump) to this one.
func (b *Builder) Block(label string) *Builder {
	if prev := b.cur; prev != nil && prev.Term.Kind == TermJump && prev.Term.Then == "" {
		prev.Term = Term{Kind: TermJump, Then: label}
	}
	blk := b.f.Block(label)
	if blk == nil {
		blk = &Block{Label: label}
		b.f.Blocks = append(b.f.Blocks, blk)
	}
	b.cur = blk
	return b
}

// Kind sets the outlining classification of the current block.
func (b *Builder) Kind(k BlockKind) *Builder {
	b.block().Kind = k
	return b
}

func (b *Builder) block() *Block {
	if b.cur == nil {
		b.Block("entry")
	}
	return b.cur
}

func (b *Builder) emit(in Instr) *Builder {
	blk := b.block()
	blk.Instrs = append(blk.Instrs, in)
	return b
}

// ALU emits n single-cycle integer operations.
func (b *Builder) ALU(n int) *Builder {
	for i := 0; i < n; i++ {
		b.emit(Instr{Op: arch.OpALU})
	}
	return b
}

// Mul emits one integer multiply.
func (b *Builder) Mul() *Builder { return b.emit(Instr{Op: arch.OpMul}) }

// Load emits n loads from the named object, spreading offsets in 8-byte
// strides so consecutive accesses walk across cache blocks the way field
// accesses to a large structure do.
func (b *Builder) Load(obj string, n int) *Builder { return b.access(arch.OpLoad, obj, n) }

// Store emits n stores to the named object.
func (b *Builder) Store(obj string, n int) *Builder { return b.access(arch.OpStore, obj, n) }

func (b *Builder) access(op arch.Op, obj string, n int) *Builder {
	blk := b.block()
	id := valueSyms.intern(obj)
	for i := 0; i < n; i++ {
		blk.Instrs = append(blk.Instrs, Instr{Op: op, data: id, Off: b.nextOff(obj)})
	}
	return b
}

// offCounters spreads object offsets; one counter per object per function.
func (b *Builder) nextOff(obj string) uint32 {
	if b.offs == nil {
		b.offs = map[string]uint32{}
	}
	off := b.offs[obj]
	b.offs[obj] = off + 8
	return off
}

// Call emits a standard indirect call sequence: the address-materializing
// load (removable by cloning specialization) followed by the jsr.
func (b *Builder) Call(callee string) *Builder {
	b.emit(Instr{Op: arch.OpLoad, Off: b.nextOff("$got"), CallLoad: true}.WithData("$got").WithCall(callee))
	return b.emit(Instr{Op: arch.OpJump}.WithCall(callee))
}

// CallRegister emits an indirect call through a computed register (protocol
// demux tables): no address load to delete, and never convertible to a
// PC-relative branch.
func (b *Builder) CallRegister(callee string) *Builder {
	return b.emit(Instr{Op: arch.OpJump}.WithCall(callee))
}

// Cond terminates the current block with a conditional branch on the named
// condition.
func (b *Builder) Cond(cond, then, els string) *Builder {
	b.block().Term = Term{Kind: TermCond, Cond: cond, Then: then, Else: els}
	b.cur = nil
	return b
}

// Jump terminates the current block with an unconditional transfer.
func (b *Builder) Jump(to string) *Builder {
	b.block().Term = Term{Kind: TermJump, Then: to}
	b.cur = nil
	return b
}

// Ret terminates the current block with a return.
func (b *Builder) Ret() *Builder {
	b.block().Term = Term{Kind: TermRet}
	b.cur = nil
	return b
}

// Loop emits a counted-loop skeleton: a block named label whose body is
// filled by fill, re-entered while the condition cond holds.
func (b *Builder) Loop(label, cond string, fill func(*Builder)) *Builder {
	b.Block(label)
	fill(b)
	next := label + "$done"
	b.Cond(cond, label, next)
	return b.Block(next)
}

// Build finalizes and validates the function. A block authored without an
// explicit terminator returns (leaf fall-off), matching C functions that end
// without a branch.
func (b *Builder) Build() (*Function, error) {
	if b.cur != nil && b.cur.Term.Kind == TermJump && b.cur.Term.Then == "" {
		b.cur.Term = Term{Kind: TermRet}
	}
	// Any block left with an empty TermJump target (authored mid-list)
	// also returns.
	for _, blk := range b.f.Blocks {
		if blk.Term.Kind == TermJump && blk.Term.Then == "" {
			blk.Term = Term{Kind: TermRet}
		}
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if err := b.f.Validate(); err != nil {
		return nil, err
	}
	return b.f, nil
}

// MustBuild is Build for statically-authored models where a failure is a
// programming error in this repository.
func (b *Builder) MustBuild() *Function {
	f, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("code: MustBuild: %v", err))
	}
	return f
}
