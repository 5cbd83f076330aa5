// Package code is the object-code model underlying the reproduction. The
// paper's techniques (outlining, cloning, path-inlining, and the various
// cloned-code layouts) all manipulate where compiled machine code sits in
// the address space, so this package represents protocol software the way a
// compiler's back end sees it: functions made of basic blocks made of
// instruction classes, with *placement* (addresses) kept separate from
// *semantics* (control flow).
//
// A code model is not executed for its results — the functional protocol
// implementations in internal/protocols do the real packet processing — but
// for its addresses: executing a model emits the instruction-fetch and
// data-access stream the equivalent Alpha code would generate, driven by a
// Binding that binds branch conditions and operand addresses to live
// protocol state.
package code

import (
	"fmt"
	"sync/atomic"

	"repro/internal/arch"
)

// Class partitions functions for the bipartite cloning layout of §3.2.
type Class uint8

const (
	// ClassPath marks a function executed once per path invocation; such
	// functions have no temporal locality across their own execution.
	ClassPath Class = iota
	// ClassLibrary marks a function invoked multiple times per path
	// (bcopy, checksum, map lookup, buffer tool); keeping these cached
	// between invocations is what the library partition is for.
	ClassLibrary
)

func (c Class) String() string {
	if c == ClassLibrary {
		return "library"
	}
	return "path"
}

// BlockKind classifies a basic block for the conservative outliner, which
// only touches the three cases §3.1 identifies as safe.
type BlockKind uint8

const (
	// BlockMain is ordinary mainline code; never outlined.
	BlockMain BlockKind = iota
	// BlockError is expensive error handling (panic, console I/O);
	// always safe to outline.
	BlockError
	// BlockInit is code executed only once, e.g. at system startup.
	BlockInit
	// BlockUnrolled is the body of an unrolled loop that the
	// latency-sensitive small-packet case never enters.
	BlockUnrolled
)

func (k BlockKind) String() string {
	switch k {
	case BlockError:
		return "error"
	case BlockInit:
		return "init"
	case BlockUnrolled:
		return "unrolled"
	default:
		return "main"
	}
}

// Outlinable reports whether the conservative outliner may move the block
// out of the mainline.
func (k BlockKind) Outlinable() bool { return k != BlockMain }

// Instr is one modeled machine instruction. It holds its operand and
// callee as interned ids, never as names, so the struct packs into 24
// bytes: every executed instruction, and every instruction the layout
// search's checks compare, is read from a slice of these. The names are
// interned when the instruction is written (the Builder, SetData,
// SetCall, WithData, WithCall) and read back through Data and Call.
type Instr struct {
	// staticBase caches the linker-assigned address of the operand, filled
	// in by LinkData; staticOK marks it valid. A run-time binding of the
	// operand shadows it.
	staticBase uint64

	// Off is the byte offset of the access within the named object,
	// assigned by the builder to spread accesses across the object.
	Off uint32

	// data is the interned id of the memory operand of a load or store,
	// which the Binding resolves to a base address at run time (unbound
	// names fall back to linker-assigned static storage); callee is the
	// interned id of the function this jump invokes. 0 means none.
	data   int32
	callee int32

	// Op is the instruction class (see internal/arch).
	Op arch.Op
	// CallLoad marks the address-materializing load of a call sequence
	// (the ldq of the callee's procedure descriptor). Cloning's
	// specialization deletes it when it converts an indirect call into a
	// PC-relative branch between co-located functions.
	CallLoad bool
	// Prologue marks a function-prologue instruction that cloning's
	// calling-convention specialization may skip.
	Prologue bool
	staticOK bool
}

// Data returns the name of the memory operand, or "" when there is none.
func (in *Instr) Data() string { return valueSyms.name(in.data) }

// Call returns the name of the function this instruction calls (or, for a
// CallLoad, loads the address of), or "" when there is none.
func (in *Instr) Call() string { return funcSyms.name(in.callee) }

// SetData names the memory operand; "" makes it a stack-frame access. The
// static address LinkData cached is dropped until the next LinkData.
func (in *Instr) SetData(name string) {
	in.data = valueSyms.intern(name)
	in.staticBase, in.staticOK = 0, false
}

// SetCall names the callee; "" makes the instruction call nothing.
func (in *Instr) SetCall(name string) { in.callee = funcSyms.intern(name) }

// WithData returns in with its memory operand named, for literals.
func (in Instr) WithData(name string) Instr {
	in.SetData(name)
	return in
}

// WithCall returns in with its callee named, for literals.
func (in Instr) WithCall(name string) Instr {
	in.SetCall(name)
	return in
}

// IsCall reports whether the instruction names a callee (a CallLoad does).
func (in *Instr) IsCall() bool { return in.callee != 0 }

// DataID returns the interned id of the memory operand, 0 when there is
// none. Equal ids name the same object in every program.
func (in *Instr) DataID() int32 { return in.data }

// CalleeID returns the interned id of the callee, which Program.FuncByID
// resolves; 0 when there is none.
func (in *Instr) CalleeID() int32 { return in.callee }

// TermKind is the way a basic block ends.
type TermKind uint8

const (
	// TermJump transfers unconditionally to Then. If the target is
	// placed immediately after the block, no instruction is emitted
	// (fall-through); otherwise an unconditional branch is emitted.
	TermJump TermKind = iota
	// TermCond evaluates the named condition and transfers to Then when
	// true, Else when false. The emitted branch polarity depends on
	// placement, exactly as a compiler would generate it.
	TermCond
	// TermRet returns to the caller, emitting the function epilogue.
	TermRet
)

// Term is a block terminator.
type Term struct {
	Kind TermKind
	// Cond names the run-time condition for TermCond; the Binding
	// decides.
	Cond string
	// Then is the target label when the condition holds (or the
	// unconditional target for TermJump).
	Then string
	// Else is the TermCond target when the condition is false.
	Else string
}

// Block is one basic block.
type Block struct {
	// Label is unique within the function.
	Label string
	// Kind drives the conservative outliner.
	Kind BlockKind
	// Instrs is the block body, excluding the terminator (which the
	// placement logic materializes).
	Instrs []Instr
	Term   Term
	// cond is the interned id of Term.Cond, set by LinkData. It lives
	// here rather than in Term so Term values still compare by name.
	cond int32
}

func (b *Block) clone() *Block {
	nb := *b
	nb.Instrs = append([]Instr(nil), b.Instrs...)
	return &nb
}

// Function is one compiled function.
type Function struct {
	// Name is unique within a Program. Clones get derived names
	// ("tcp_input$clone").
	Name string
	// Class is the bipartite-layout classification.
	Class Class
	// Blocks is the source-order block list; Blocks[0] is the entry.
	Blocks []*Block
	// Epilogue is the register-restore sequence emitted before the
	// return jump.
	Epilogue []Instr
	// id is the interned id of Name, set when the function is added to a
	// program; placements are indexed by it.
	id int32
	// index resolves labels to positions in Blocks (see Index).
	index atomic.Pointer[BlockIndex]
}

// ID returns the interned id of the function's name, the callee id each
// call to it carries; 0 until the function is added to a program.
func (f *Function) ID() int32 { return f.id }

// Clone returns a deep copy of the function under a new name.
func (f *Function) Clone(name string) *Function {
	nf := &Function{
		Name:     name,
		Class:    f.Class,
		Blocks:   make([]*Block, len(f.Blocks)),
		Epilogue: append([]Instr(nil), f.Epilogue...),
	}
	for i, b := range f.Blocks {
		nf.Blocks[i] = b.clone()
	}
	return nf
}

// Block returns the block with the given label, or nil.
func (f *Function) Block(label string) *Block {
	for _, b := range f.Blocks {
		if b.Label == label {
			return b
		}
	}
	return nil
}

// StaticInstrs returns the total instruction count of the function body
// (excluding placement-dependent terminators and the epilogue).
func (f *Function) StaticInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// MainlineInstrs returns the instruction count of the non-outlinable blocks.
func (f *Function) MainlineInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		if !b.Kind.Outlinable() {
			n += len(b.Instrs)
		}
	}
	return n
}

// Callees returns the distinct functions this function calls, in first-call
// order.
func (f *Function) Callees() []string {
	var out []string
	seen := map[string]bool{}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if c := b.Instrs[i].Call(); c != "" && !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// Validate checks structural invariants: entry exists, labels are unique,
// terminator targets resolve. It leaves the function's block index built.
func (f *Function) Validate() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("code: function %s has no blocks", f.Name)
	}
	x := f.Index()
	if d := x.Duplicate(); d >= 0 {
		return fmt.Errorf("code: function %s: duplicate label %q", f.Name, f.Blocks[d].Label)
	}
	for i, b := range f.Blocks {
		switch b.Term.Kind {
		case TermJump:
			if x.Then(i) < 0 {
				return fmt.Errorf("code: function %s: block %s jumps to unknown label %q", f.Name, b.Label, b.Term.Then)
			}
		case TermCond:
			if b.Term.Cond == "" {
				return fmt.Errorf("code: function %s: block %s has empty condition", f.Name, b.Label)
			}
			if x.Then(i) < 0 || x.Else(i) < 0 {
				return fmt.Errorf("code: function %s: block %s branches to unknown label (%q/%q)", f.Name, b.Label, b.Term.Then, b.Term.Else)
			}
		case TermRet:
		default:
			return fmt.Errorf("code: function %s: block %s has invalid terminator %d", f.Name, b.Label, b.Term.Kind)
		}
	}
	return nil
}
