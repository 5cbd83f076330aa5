package code

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultTextBase is where program text starts unless a layout says
// otherwise, and DefaultDataBase is where linker-assigned static data lives.
const (
	DefaultTextBase = 0x0010_0000
	DefaultDataBase = 0x0080_0000
	instrBytes      = 4
)

// Segment is a run of contiguously packed blocks starting at Addr. A
// function is placed as one or more segments; the common case is a single
// segment holding all blocks, but cloning places a clone's mainline far away
// from the cold blocks it shares with the original.
type Segment struct {
	Addr   uint64
	Labels []string
}

// Placement is the computed layout of one function.
type Placement struct {
	Segments []Segment
	blocks   map[string]*placedBlock
	// fn is the function this placement lays out, and entry its placed
	// entry block — resolved once at Place time so the engine's call path
	// starts executing without a lookup.
	fn    *Function
	entry *placedBlock
	end   uint64
}

type placedBlock struct {
	b    *Block
	addr uint64
	// fall is the label of the physically following block within the
	// same segment ("" at segment end).
	fall string
	// size is the block's static instruction count including the
	// materialized terminator.
	size int
	// fallThrough, then and els are the placed successors, resolved at
	// Place time so the engine's block-transition loop chases pointers
	// instead of hashing labels. fallThrough is nil at segment end; then
	// and els are nil for kinds that do not use them.
	fallThrough *placedBlock
	then, els   *placedBlock
}

// End returns the first address past the placement's highest segment.
func (p *Placement) End() uint64 { return p.end }

// BlockAddr returns the placed address of the named block.
func (p *Placement) BlockAddr(label string) (uint64, bool) {
	pb, ok := p.blocks[label]
	if !ok {
		return 0, false
	}
	return pb.addr, true
}

// BlockSize returns the placed static size (in instructions, terminator
// included) of the named block.
func (p *Placement) BlockSize(label string) (int, bool) {
	pb, ok := p.blocks[label]
	if !ok {
		return 0, false
	}
	return pb.size, true
}

// termStaticSize returns the instruction count the terminator occupies given
// the physically-following label.
func termStaticSize(f *Function, b *Block, fall string) int {
	switch b.Term.Kind {
	case TermJump:
		if b.Term.Then == fall {
			return 0
		}
		return 1
	case TermCond:
		if b.Term.Then == fall || b.Term.Else == fall {
			return 1
		}
		return 2
	case TermRet:
		return len(f.Epilogue) + 1
	}
	return 0
}

// Program is a set of functions plus their placement and static data
// addresses: the linked image the engine executes against.
type Program struct {
	funcs map[string]*Function
	order []string
	// placements is indexed by function id (Function.id, the callee id
	// LinkData stores in each call). Place updates it, so a program
	// re-placed without re-linking still resolves every call to the
	// current layout.
	placements []*Placement
	dataSyms   map[string]uint64
	dataSizes  map[string]uint32
	textBase   uint64
	textEnd    uint64
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{
		funcs:    map[string]*Function{},
		textBase: DefaultTextBase,
	}
}

// Add registers a function; the link order is the Add order unless SetOrder
// overrides it. Adding a duplicate name is an error.
func (p *Program) Add(fs ...*Function) error {
	for _, f := range fs {
		if _, dup := p.funcs[f.Name]; dup {
			return fmt.Errorf("code: duplicate function %q", f.Name)
		}
		if err := f.Validate(); err != nil {
			return err
		}
		f.id = funcSyms.intern(f.Name)
		p.funcs[f.Name] = f
		p.order = append(p.order, f.Name)
	}
	return nil
}

// MustAdd is Add for statically-known inputs.
func (p *Program) MustAdd(fs ...*Function) {
	if err := p.Add(fs...); err != nil {
		panic(err)
	}
}

// Func returns the named function, or nil.
func (p *Program) Func(name string) *Function { return p.funcs[name] }

// Funcs returns the functions in link order.
func (p *Program) Funcs() []*Function {
	out := make([]*Function, 0, len(p.order))
	for _, n := range p.order {
		out = append(out, p.funcs[n])
	}
	return out
}

// Names returns the link order.
func (p *Program) Names() []string { return append([]string(nil), p.order...) }

// SetOrder replaces the link order; every existing function must appear
// exactly once.
func (p *Program) SetOrder(names []string) error {
	if len(names) != len(p.order) {
		return fmt.Errorf("code: SetOrder got %d names, program has %d functions", len(names), len(p.order))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if p.funcs[n] == nil {
			return fmt.Errorf("code: SetOrder: unknown function %q", n)
		}
		if seen[n] {
			return fmt.Errorf("code: SetOrder: duplicate function %q", n)
		}
		seen[n] = true
	}
	p.order = append([]string(nil), names...)
	return nil
}

// Clone deep-copies the program's functions and order. Placement and data
// addresses are not copied; the clone must be re-linked.
func (p *Program) Clone() *Program {
	np := NewProgram()
	np.textBase = p.textBase
	for _, n := range p.order {
		np.MustAdd(p.funcs[n].Clone(n))
	}
	return np
}

// Remove deletes a function from the program (used when path-inlining
// replaces a set of path functions with one merged function).
func (p *Program) Remove(name string) {
	f, ok := p.funcs[name]
	if !ok {
		return
	}
	if int(f.id) < len(p.placements) {
		p.placements[f.id] = nil
	}
	delete(p.funcs, name)
	for i, n := range p.order {
		if n == name {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
}

// Place installs a custom placement for one function. Every block must be
// covered exactly once across the segments, and segments must not overlap
// other placements (overlap checking happens in Link/FinishLayout).
func (p *Program) Place(name string, segs []Segment) error {
	f := p.funcs[name]
	if f == nil {
		return fmt.Errorf("code: Place: unknown function %q", name)
	}
	covered := map[string]bool{}
	for _, s := range segs {
		for _, l := range s.Labels {
			if f.Block(l) == nil {
				return fmt.Errorf("code: Place %s: unknown block %q", name, l)
			}
			if covered[l] {
				return fmt.Errorf("code: Place %s: block %q placed twice", name, l)
			}
			covered[l] = true
		}
	}
	if len(covered) != len(f.Blocks) {
		return fmt.Errorf("code: Place %s: %d of %d blocks placed", name, len(covered), len(f.Blocks))
	}
	pl := &Placement{Segments: segs, blocks: map[string]*placedBlock{}, fn: f}
	for _, s := range segs {
		addr := s.Addr
		for i, l := range s.Labels {
			b := f.Block(l)
			fall := ""
			if i+1 < len(s.Labels) {
				fall = s.Labels[i+1]
			}
			size := len(b.Instrs) + termStaticSize(f, b, fall)
			pl.blocks[l] = &placedBlock{b: b, addr: addr, fall: fall, size: size}
			addr += uint64(size * instrBytes)
		}
		if addr > pl.end {
			pl.end = addr
		}
	}
	// Resolve successor labels to placed-block pointers so execution never
	// consults the label map again.
	for _, pb := range pl.blocks {
		if pb.fall != "" {
			pb.fallThrough = pl.blocks[pb.fall]
		}
		switch pb.b.Term.Kind {
		case TermJump:
			pb.then = pl.blocks[pb.b.Term.Then]
		case TermCond:
			pb.then = pl.blocks[pb.b.Term.Then]
			pb.els = pl.blocks[pb.b.Term.Else]
		}
	}
	pl.entry = pl.blocks[f.Blocks[0].Label]
	if n := int(f.id) + 1; n > len(p.placements) {
		p.placements = append(p.placements, make([]*Placement, n-len(p.placements))...)
	}
	p.placements[f.id] = pl
	return nil
}

// PlaceSequential places the function as a single segment at addr with
// blocks in the given order (source order if order is nil) and returns the
// first free address after it.
func (p *Program) PlaceSequential(name string, addr uint64, order []string) (uint64, error) {
	f := p.funcs[name]
	if f == nil {
		return 0, fmt.Errorf("code: PlaceSequential: unknown function %q", name)
	}
	if order == nil {
		for _, b := range f.Blocks {
			order = append(order, b.Label)
		}
	}
	if err := p.Place(name, []Segment{{Addr: addr, Labels: order}}); err != nil {
		return 0, err
	}
	return p.placementOf(f).end, nil
}

// Link places every function sequentially in link order starting at the text
// base, then assigns static data addresses. This models the untuned "order
// of the object files" layout that version STD starts from.
func (p *Program) Link() error {
	addr := p.textBase
	for _, n := range p.order {
		end, err := p.PlaceSequential(n, addr, nil)
		if err != nil {
			return err
		}
		addr = end
	}
	p.textEnd = addr
	return p.LinkData()
}

// FinishLayout is called after custom Place calls to verify coverage and
// overlap, compute the text end, and assign data addresses: FinishText
// followed by LinkData.
func (p *Program) FinishLayout() error {
	if err := p.FinishText(); err != nil {
		return err
	}
	return p.LinkData()
}

// FinishText is the placement half of FinishLayout: it verifies that every
// function is placed and no two placed blocks overlap, and computes the
// text end. It leaves the data layout alone, which depends only on the
// instructions, never on where they sit; a caller that re-places an
// already-linked program without changing any instruction needs only this.
func (p *Program) FinishText() error {
	type span struct {
		lo, hi uint64
		name   string
	}
	var spans []span
	end := p.textBase
	for _, n := range p.order {
		pl := p.placementOf(p.funcs[n])
		if pl == nil {
			return fmt.Errorf("code: FinishText: function %q not placed", n)
		}
		for _, pb := range pl.blocks {
			if pb.size == 0 {
				continue
			}
			spans = append(spans, span{pb.addr, pb.addr + uint64(pb.size*instrBytes), n})
		}
		if pl.end > end {
			end = pl.end
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return fmt.Errorf("code: FinishText: %s at %#x overlaps %s ending at %#x",
				spans[i].name, spans[i].lo, spans[i-1].name, spans[i-1].hi)
		}
	}
	p.textEnd = end
	return nil
}

// TextBase returns the base address of program text.
func (p *Program) TextBase() uint64 { return p.textBase }

// SetTextBase changes where Link starts placing text (must precede linking).
func (p *Program) SetTextBase(addr uint64) { p.textBase = addr }

// TextEnd returns the first address past all placed code.
func (p *Program) TextEnd() uint64 { return p.textEnd }

// Placement returns the layout of the named function, or nil.
func (p *Program) Placement(name string) *Placement {
	if f := p.funcs[name]; f != nil {
		return p.placementOf(f)
	}
	return nil
}

// placementOf returns the layout of f, a function of p, or nil.
func (p *Program) placementOf(f *Function) *Placement {
	if int(f.id) < len(p.placements) {
		return p.placements[f.id]
	}
	return nil
}

// EntryAddr returns the placed address of the function's entry block.
func (p *Program) EntryAddr(name string) (uint64, bool) {
	f := p.funcs[name]
	if f == nil {
		return 0, false
	}
	pl := p.placementOf(f)
	if pl == nil {
		return 0, false
	}
	return pl.BlockAddr(f.Blocks[0].Label)
}

// LinkData assigns addresses to every static data symbol referenced by any
// instruction. Symbols are sized by the largest offset the builders emitted
// (rounded up to a cache block) and assigned in sorted order so the data
// layout is independent of authoring order. The "$stack" symbol is skipped:
// it is always bound at run time to the current thread's stack.
func (p *Program) LinkData() error {
	sizes := map[string]uint32{}
	for _, f := range p.funcs {
		note := func(in Instr) {
			if in.Data == "" || in.Data == stackName {
				return
			}
			if in.Off+8 > sizes[in.Data] {
				sizes[in.Data] = in.Off + 8
			}
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				note(in)
			}
		}
		for _, in := range f.Epilogue {
			note(in)
		}
	}
	names := make([]string, 0, len(sizes))
	for n := range sizes {
		names = append(names, n)
	}
	sort.Strings(names)
	p.dataSyms = map[string]uint64{}
	p.dataSizes = map[string]uint32{}
	addr := uint64(DefaultDataBase)
	for _, n := range names {
		sz := (sizes[n] + 63) &^ 63
		p.dataSyms[n] = addr
		p.dataSizes[n] = sz
		addr += uint64(sz)
	}
	// Resolve every name the engine consults: each operand gets its
	// interned id and linker-assigned fallback address, each call its
	// callee id, each conditional block its condition id. Execution then
	// indexes a Binding slot or the placement slice and never hashes a
	// name.
	for _, f := range p.funcs {
		annotate := func(in *Instr) {
			in.data, in.callee = 0, 0
			if in.Data != "" {
				in.data = valueSyms.intern(in.Data)
			}
			if in.Call != "" {
				in.callee = funcSyms.intern(in.Call)
			}
			in.staticOK = false
			if a, ok := p.dataSyms[in.Data]; ok {
				in.staticBase, in.staticOK = a, true
			}
		}
		for _, b := range f.Blocks {
			b.cond = 0
			if b.Term.Kind == TermCond {
				b.cond = valueSyms.intern(b.Term.Cond)
			}
			for i := range b.Instrs {
				annotate(&b.Instrs[i])
			}
		}
		for i := range f.Epilogue {
			annotate(&f.Epilogue[i])
		}
	}
	return nil
}

// DataAddr returns the linker-assigned address of a static symbol.
func (p *Program) DataAddr(name string) (uint64, bool) {
	a, ok := p.dataSyms[name]
	return a, ok
}

// LayoutFingerprint hashes everything the engine consults at run time: the
// link order, every function's blocks (labels, kinds, instruction streams,
// terminators, epilogue), every placed block's address, size and physical
// fall-through, and the static data assignment. Two calls on an untouched
// program return the same value, so tests use it to prove that programs are
// never mutated after linking — the invariant that lets the experiment
// runner share one linked image across hosts and concurrent samples.
func (p *Program) LayoutFingerprint() uint64 {
	h := fnv.New64a()
	hashInstr := func(in *Instr) {
		fmt.Fprintf(h, "i%d,%s,%d,%s,%t,%t,%d,%t;", in.Op, in.Data, in.Off, in.Call, in.CallLoad, in.Prologue, in.staticBase, in.staticOK)
	}
	for _, n := range p.order {
		f := p.funcs[n]
		fmt.Fprintf(h, "f%s,%d:", n, f.Class)
		for _, b := range f.Blocks {
			fmt.Fprintf(h, "b%s,%d,%d,%s,%s,%s:", b.Label, b.Kind, b.Term.Kind, b.Term.Cond, b.Term.Then, b.Term.Else)
			for i := range b.Instrs {
				hashInstr(&b.Instrs[i])
			}
		}
		for i := range f.Epilogue {
			hashInstr(&f.Epilogue[i])
		}
		if pl := p.placementOf(f); pl != nil {
			fmt.Fprintf(h, "p%d:", pl.end)
			for _, b := range f.Blocks {
				if pb := pl.blocks[b.Label]; pb != nil {
					fmt.Fprintf(h, "@%s,%d,%d,%s;", b.Label, pb.addr, pb.size, pb.fall)
				}
			}
		}
	}
	syms := make([]string, 0, len(p.dataSyms))
	for n := range p.dataSyms {
		syms = append(syms, n)
	}
	sort.Strings(syms)
	for _, n := range syms {
		fmt.Fprintf(h, "d%s,%d,%d;", n, p.dataSyms[n], p.dataSizes[n])
	}
	fmt.Fprintf(h, "t%d,%d", p.textBase, p.textEnd)
	return h.Sum64()
}

// TextSpan describes one placed basic block of the linked image: its
// address range, the function owning it, the function's bipartite-layout
// class, and the block's outlining kind. The observability layer uses the
// span list to resolve a faulting instruction address back to the function
// and layout partition responsible for it.
type TextSpan struct {
	// Start and End bound the block: Start inclusive, End exclusive.
	Start, End uint64
	// Func is the owning function's name.
	Func string
	// Class is the owning function's bipartite classification.
	Class Class
	// Kind is the block's outlining kind (mainline vs cold code).
	Kind BlockKind
}

// TextMap returns every placed block as a span, sorted by start address.
// Zero-sized blocks (empty blocks whose terminator fell through) are
// omitted. The program must be linked.
func (p *Program) TextMap() []TextSpan {
	var spans []TextSpan
	for _, n := range p.order {
		f := p.funcs[n]
		pl := p.placementOf(f)
		if pl == nil {
			continue
		}
		for _, b := range f.Blocks {
			pb := pl.blocks[b.Label]
			if pb == nil || pb.size == 0 {
				continue
			}
			spans = append(spans, TextSpan{
				Start: pb.addr,
				End:   pb.addr + uint64(pb.size*instrBytes),
				Func:  n,
				Class: f.Class,
				Kind:  b.Kind,
			})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spans
}

// StaticInstrs sums the body instruction counts of all functions.
func (p *Program) StaticInstrs() int {
	n := 0
	for _, f := range p.funcs {
		n += f.StaticInstrs()
	}
	return n
}
