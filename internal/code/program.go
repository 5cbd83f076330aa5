package code

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
	// Segments is the placement's own copy of the segments Place was
	// given, so a caller may reuse its segment slice for the next Place.
	Segments []Segment
	// blocks holds the placed blocks by position in fn.Blocks at Place
	// time: every block is placed exactly once, so the slice is dense.
	blocks []placedBlock
	// seq lists the slots of blocks in segment order, and segEnd the end
	// of each segment's run in seq: each run is packed contiguously, so
	// ordering the segments by address orders every block.
	seq, segEnd []int32
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
	// size is the block's static instruction count including the
	// materialized terminator.
	size int
	// fallThrough, then and els are the placed successors, resolved at
	// Place time so the engine's block-transition loop chases pointers
	// instead of hashing labels. fallThrough is the physically following
	// block within the same segment, nil at segment end; then and els
	// are nil for kinds that do not use them.
	fallThrough *placedBlock
	then, els   *placedBlock
	// code is the block body compiled into runs, one bodyCode per issue
	// model it has executed under, filled on first execution (see
	// placedBlock.body). Place clears it whenever it lays the block out
	// again: runs are compiled for one address modulo the line size.
	code atomic.Pointer[bodyCode]
}

// fall returns the label of the physically following block within the
// same segment ("" at segment end).
func (pb *placedBlock) fall() string {
	if pb.fallThrough == nil {
		return ""
	}
	return pb.fallThrough.b.Label
}

// placed returns the placed block of the function's Blocks[i], or nil when
// i is out of range or that block is not in the placement (a block added
// after Place ran). Blocks sit at their Place-time positions, so the
// search past position i only runs on a function mutated since.
func (p *Placement) placed(i int) *placedBlock {
	if j := p.Slot(i); j >= 0 {
		return &p.blocks[j]
	}
	return nil
}

// Slot returns the placement slot of the function's Blocks[i] (its
// position in Blocks when Place ran, the slot TextBlock.Slot names), or
// -1 under the conditions BlockSpanAt reports as a missing block.
func (p *Placement) Slot(i int) int {
	if i < 0 || i >= len(p.fn.Blocks) {
		return -1
	}
	b := p.fn.Blocks[i]
	if i < len(p.blocks) && p.blocks[i].b == b {
		return i
	}
	for j := range p.blocks {
		if p.blocks[j].b == b {
			return j
		}
	}
	return -1
}

// End returns the first address past the placement's highest segment.
func (p *Placement) End() uint64 { return p.end }

// BlockAddr returns the placed address of the named block.
func (p *Placement) BlockAddr(label string) (uint64, bool) {
	addr, _, err := p.BlockSpan(label)
	return addr, err == nil
}

// BlockSize returns the placed static size (in instructions, terminator
// included) of the named block.
func (p *Placement) BlockSize(label string) (int, bool) {
	_, size, err := p.BlockSpan(label)
	return size, err == nil
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
	// list is the link order.
	list []*Function
	// byID and placements are indexed by function id (Function.id, the
	// callee id each call to it carries). Place updates placements,
	// so a program re-placed without re-linking still resolves every call
	// to the current layout.
	byID       []*Function
	placements []*Placement
	dataSyms   map[string]uint64
	dataSizes  map[string]uint32
	textBase   uint64
	textEnd    uint64
	// text lists every non-empty placed block in address order, as the
	// last FinishText found them; textOK is cleared by anything that
	// could make it stale (a Place, or a change to the function list).
	// textSegs is FinishText's reusable segment list.
	text     []TextBlock
	textOK   bool
	textSegs []textSeg
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
		p.list = append(p.list, f)
		if n := int(f.id) + 1; n > len(p.byID) {
			p.byID = append(p.byID, make([]*Function, n-len(p.byID))...)
		}
		p.byID[f.id] = f
		p.textOK = false
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

// FuncByID returns the function whose name has the interned id, the id
// Instr.CalleeID reports, or nil when the program has none.
func (p *Program) FuncByID(id int32) *Function {
	if id > 0 && int(id) < len(p.byID) {
		return p.byID[id]
	}
	return nil
}

// Funcs returns the functions in link order.
func (p *Program) Funcs() []*Function { return append([]*Function(nil), p.list...) }

// NumFuncs returns the number of functions; with FuncAt it walks the link
// order without the copy Funcs makes.
func (p *Program) NumFuncs() int { return len(p.list) }

// FuncAt returns the i-th function in link order.
func (p *Program) FuncAt(i int) *Function { return p.list[i] }

// Names returns the link order.
func (p *Program) Names() []string {
	out := make([]string, len(p.list))
	for i, f := range p.list {
		out[i] = f.Name
	}
	return out
}

// SetOrder replaces the link order; every existing function must appear
// exactly once.
func (p *Program) SetOrder(names []string) error {
	if len(names) != len(p.list) {
		return fmt.Errorf("code: SetOrder got %d names, program has %d functions", len(names), len(p.list))
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
	for i, n := range names {
		p.list[i] = p.funcs[n]
	}
	p.textOK = false
	return nil
}

// Clone deep-copies the program's functions and order. Placement and data
// addresses are not copied; the clone must be re-linked.
func (p *Program) Clone() *Program {
	np := NewProgram()
	np.textBase = p.textBase
	for _, f := range p.list {
		np.MustAdd(f.Clone(f.Name))
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
	p.byID[f.id] = nil
	p.textOK = false
	delete(p.funcs, name)
	for i, g := range p.list {
		if g == f {
			p.list = append(p.list[:i], p.list[i+1:]...)
			break
		}
	}
}

// placeScratch is Place's reusable per-call state: the position of each
// segment label, and a stamp per block position marking it covered.
type placeScratch struct {
	pos   []int32
	seen  []uint32
	stamp uint32
}

var placeScratchPool = sync.Pool{New: func() any { return new(placeScratch) }}

// Place installs a custom placement for one function. Every block must be
// covered exactly once across the segments, and segments must not overlap
// other placements (overlap checking happens in Link/FinishLayout).
// Re-placing a function reuses its previous placement's storage; a refused
// placement leaves the previous one as it was.
func (p *Program) Place(name string, segs []Segment) error {
	f := p.funcs[name]
	if f == nil {
		return fmt.Errorf("code: Place: unknown function %q", name)
	}
	ix := f.Index()
	n := len(f.Blocks)
	sc := placeScratchPool.Get().(*placeScratch)
	defer placeScratchPool.Put(sc)
	if sc.stamp++; sc.stamp == 0 || len(sc.seen) < n {
		sc.seen = make([]uint32, max(n, cap(sc.seen)))
		sc.stamp = 1
	}
	// Resolve every label before touching the current placement. Segments
	// list blocks in source order almost always, so the next position is
	// the hint that saves hashing the label.
	pos := sc.pos[:0]
	for _, s := range segs {
		hint := -1
		for _, l := range s.Labels {
			i := ix.Pos(l, hint)
			if i < 0 {
				return fmt.Errorf("code: Place %s: unknown block %q", name, l)
			}
			if sc.seen[i] == sc.stamp {
				return fmt.Errorf("code: Place %s: block %q placed twice", name, l)
			}
			sc.seen[i] = sc.stamp
			pos = append(pos, int32(i))
			hint = i + 1
		}
	}
	sc.pos = pos
	if len(pos) != n {
		return fmt.Errorf("code: Place %s: %d of %d blocks placed", name, len(pos), n)
	}
	pl := p.PlacementOf(f)
	if pl == nil || pl.fn != f {
		pl = &Placement{fn: f}
	}
	if cap(pl.blocks) >= n {
		pl.blocks = pl.blocks[:n]
	} else {
		pl.blocks = make([]placedBlock, n)
	}
	pl.Segments = append(pl.Segments[:0], segs...)
	pl.seq, pl.segEnd, pl.end = append(pl.seq[:0], pos...), pl.segEnd[:0], 0
	k := 0
	for _, s := range segs {
		addr := s.Addr
		var prev *placedBlock
		for j := range s.Labels {
			b := f.Blocks[pos[k]]
			pb := &pl.blocks[pos[k]]
			k++
			fall := ""
			if j+1 < len(s.Labels) {
				fall = s.Labels[j+1]
			}
			pb.b, pb.addr = b, addr
			pb.size = len(b.Instrs) + termStaticSize(f, b, fall)
			pb.fallThrough = nil
			if pb.code.Load() != nil {
				pb.code.Store(nil)
			}
			if prev != nil {
				prev.fallThrough = pb
			}
			prev = pb
			addr += uint64(pb.size * instrBytes)
		}
		if addr > pl.end {
			pl.end = addr
		}
		pl.segEnd = append(pl.segEnd, int32(k))
	}
	// Resolve successor labels to placed-block pointers so execution never
	// consults a label again.
	at := func(i int) *placedBlock {
		if i < 0 {
			return nil
		}
		return &pl.blocks[i]
	}
	for i := range pl.blocks {
		pb := &pl.blocks[i]
		pb.then, pb.els = nil, nil
		switch pb.b.Term.Kind {
		case TermJump:
			pb.then = at(ix.Then(i))
		case TermCond:
			pb.then, pb.els = at(ix.Then(i)), at(ix.Else(i))
		}
	}
	pl.entry = &pl.blocks[0]
	if n := int(f.id) + 1; n > len(p.placements) {
		p.placements = append(p.placements, make([]*Placement, n-len(p.placements))...)
	}
	p.placements[f.id] = pl
	p.textOK = false
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
		order = AllLabels(f)
	}
	if err := p.Place(name, []Segment{{Addr: addr, Labels: order}}); err != nil {
		return 0, err
	}
	return p.PlacementOf(f).end, nil
}

// Link places every function sequentially in link order starting at the text
// base, then assigns static data addresses. This models the untuned "order
// of the object files" layout that version STD starts from.
func (p *Program) Link() error {
	addr := p.textBase
	for _, f := range p.list {
		end, err := p.PlaceSequential(f.Name, addr, nil)
		if err != nil {
			return err
		}
		addr = end
	}
	if err := p.FinishText(); err != nil {
		return err
	}
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

// TextBlock is one non-empty placed block of the image, as TextOrder
// lists them.
type TextBlock struct {
	// Addr is the block's placed address.
	Addr uint64
	// Block is the placed block.
	Block *Block
	// Size is the block's placed size in instructions, terminator
	// included; never zero.
	Size int32
	// Func is the owning function's link position, and Slot the block's
	// slot in that function's placement (Placement.Slot).
	Func, Slot int32
}

// End returns the first address past the block.
func (t *TextBlock) End() uint64 { return t.Addr + uint64(t.Size)*instrBytes }

// textSeg is one placed segment in FinishText's address order: its start,
// its function's link position and its index among that placement's
// segments.
type textSeg struct {
	addr    uint64
	fn, seg int32
}

// FinishText is the placement half of FinishLayout: it verifies that every
// function is placed and no two placed blocks overlap, computes the text
// end, and keeps the address-ordered block list TextOrder returns. It
// leaves the data layout alone, which depends only on the instructions,
// never on where they sit; a caller that re-places an already-linked
// program without changing any instruction needs only this. Of two
// overlapping blocks it names the one starting later, or on a tie the one
// later in link order, then in its function's block order.
func (p *Program) FinishText() error {
	end := p.textBase
	for _, f := range p.list {
		pl := p.PlacementOf(f)
		if pl == nil {
			return fmt.Errorf("code: FinishText: function %q not placed", f.Name)
		}
		end = max(end, pl.end)
	}
	text, at := p.orderText(p.text[:0], &p.textSegs)
	p.text, p.textOK = text, true
	if at > 0 {
		return fmt.Errorf("code: FinishText: %s at %#x overlaps %s ending at %#x",
			p.list[text[at].Func].Name, text[at].Addr, p.list[text[at-1].Func].Name, text[at-1].End())
	}
	p.textEnd = end
	return nil
}

// orderText appends every non-empty placed block to dst in address
// order, ties broken by link position and then placement slot, and
// returns the list with the index of the first block that starts before
// its predecessor ends, or 0 when none does. Place packs each segment
// contiguously, so sorting the segments by their first block's address
// orders every block of a layout whose segments do not overlap; only an
// overlapping layout pays for sorting the blocks themselves. Unplaced
// functions contribute nothing.
func (p *Program) orderText(dst []TextBlock, segs *[]textSeg) ([]TextBlock, int) {
	ss := (*segs)[:0]
	for fi, f := range p.list {
		pl := p.PlacementOf(f)
		if pl == nil {
			continue
		}
		lo := int32(0)
		for si, hi := range pl.segEnd {
			if hi > lo {
				ss = append(ss, textSeg{pl.blocks[pl.seq[lo]].addr, int32(fi), int32(si)})
			}
			lo = hi
		}
	}
	*segs = ss
	slices.SortFunc(ss, func(a, b textSeg) int {
		if c := cmp.Compare(a.addr, b.addr); c != 0 {
			return c
		}
		if c := cmp.Compare(a.fn, b.fn); c != 0 {
			return c
		}
		return cmp.Compare(a.seg, b.seg)
	})
	text, sorted := dst, true
	for _, s := range ss {
		pl := p.PlacementOf(p.list[s.fn])
		lo := int32(0)
		if s.seg > 0 {
			lo = pl.segEnd[s.seg-1]
		}
		for _, slot := range pl.seq[lo:pl.segEnd[s.seg]] {
			pb := &pl.blocks[slot]
			if pb.size == 0 {
				continue
			}
			if n := len(text); n > 0 && pb.addr < text[n-1].End() {
				sorted = false
			}
			text = append(text, TextBlock{Addr: pb.addr, Block: pb.b, Size: int32(pb.size), Func: s.fn, Slot: slot})
		}
	}
	if sorted {
		return text, 0
	}
	slices.SortFunc(text, func(a, b TextBlock) int {
		if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Func, b.Func); c != 0 {
			return c
		}
		return cmp.Compare(a.Slot, b.Slot)
	})
	for i := 1; i < len(text); i++ {
		if text[i].Addr < text[i-1].End() {
			return text, i
		}
	}
	return text, 0
}

// TextOrder returns every non-empty placed block in address order, ties
// broken by link position and then placement slot. After FinishText (or
// Link) it is the list FinishText kept, valid until the next Place;
// otherwise it is computed afresh, without being kept, so a program
// shared between goroutines is only ever read. The caller must not
// modify the list.
func (p *Program) TextOrder() []TextBlock {
	if p.textOK {
		return p.text
	}
	text, _ := p.orderText(nil, new([]textSeg))
	return text
}

// TextBase returns the base address of program text.
func (p *Program) TextBase() uint64 { return p.textBase }

// TextEnd returns the first address past all placed code.
func (p *Program) TextEnd() uint64 { return p.textEnd }

// Placement returns the layout of the named function, or nil.
func (p *Program) Placement(name string) *Placement {
	if f := p.funcs[name]; f != nil {
		return p.PlacementOf(f)
	}
	return nil
}

// PlacementOf returns the layout of f, a function of p, or nil: Placement
// without the name lookup.
func (p *Program) PlacementOf(f *Function) *Placement {
	if int(f.id) < len(p.placements) {
		return p.placements[f.id]
	}
	return nil
}

// EntryAddr returns the placed address of the function's entry block.
func (p *Program) EntryAddr(name string) (uint64, bool) {
	addr, err := p.FuncEntry(name)
	return addr, err == nil
}

// LinkData assigns addresses to every static data symbol referenced by any
// instruction. Symbols are sized by the largest offset the builders emitted
// (rounded up to a cache block) and assigned in sorted order so the data
// layout is independent of authoring order. The "$stack" symbol is skipped:
// it is always bound at run time to the current thread's stack.
func (p *Program) LinkData() error {
	sizes := map[int32]uint32{} // by operand id
	for _, f := range p.funcs {
		note := func(in *Instr) {
			if in.data != 0 && in.data != stackID {
				sizes[in.data] = max(sizes[in.data], in.Off+8)
			}
		}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				note(&b.Instrs[i])
			}
		}
		for i := range f.Epilogue {
			note(&f.Epilogue[i])
		}
	}
	names := make([]string, 0, len(sizes))
	for id := range sizes {
		names = append(names, valueSyms.name(id))
	}
	sort.Strings(names)
	p.dataSyms = map[string]uint64{}
	p.dataSizes = map[string]uint32{}
	static := make([]uint64, valueSyms.size()+1) // by operand id; 0 = none
	addr := uint64(DefaultDataBase)
	for _, n := range names {
		id := valueSyms.lookup(n)
		sz := (sizes[id] + 63) &^ 63
		p.dataSyms[n], p.dataSizes[n], static[id] = addr, sz, addr
		addr += uint64(sz)
	}
	// Give each operand its linker-assigned fallback address and each
	// conditional block its condition id. Operand and callee ids were
	// interned when the instructions were written, so execution then
	// indexes a Binding slot or the placement slice and never hashes a
	// name.
	for _, f := range p.funcs {
		annotate := func(in *Instr) {
			in.staticBase = static[in.data]
			in.staticOK = in.staticBase != 0
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
		fmt.Fprintf(h, "i%d,%s,%d,%s,%t,%t,%d,%t;", in.Op, in.Data(), in.Off, in.Call(), in.CallLoad, in.Prologue, in.staticBase, in.staticOK)
	}
	for _, f := range p.list {
		fmt.Fprintf(h, "f%s,%d:", f.Name, f.Class)
		for _, b := range f.Blocks {
			fmt.Fprintf(h, "b%s,%d,%d,%s,%s,%s:", b.Label, b.Kind, b.Term.Kind, b.Term.Cond, b.Term.Then, b.Term.Else)
			for i := range b.Instrs {
				hashInstr(&b.Instrs[i])
			}
		}
		for i := range f.Epilogue {
			hashInstr(&f.Epilogue[i])
		}
		if pl := p.PlacementOf(f); pl != nil {
			fmt.Fprintf(h, "p%d:", pl.end)
			for i, b := range f.Blocks {
				if pb := pl.placed(i); pb != nil {
					fmt.Fprintf(h, "@%s,%d,%d,%s;", b.Label, pb.addr, pb.size, pb.fall())
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
	for _, f := range p.list {
		pl := p.PlacementOf(f)
		if pl == nil {
			continue
		}
		for i, b := range f.Blocks {
			pb := pl.placed(i)
			if pb == nil || pb.size == 0 {
				continue
			}
			spans = append(spans, TextSpan{
				Start: pb.addr,
				End:   pb.addr + uint64(pb.size*instrBytes),
				Func:  f.Name,
				Class: f.Class,
				Kind:  b.Kind,
			})
		}
	}
	slices.SortFunc(spans, func(a, b TextSpan) int { return cmp.Compare(a.Start, b.Start) })
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
