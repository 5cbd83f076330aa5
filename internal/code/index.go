package code

// BlockIndex resolves a function's block labels to positions in its Blocks
// slice, terminator targets included, so that placement and the static
// checks index blocks by position instead of hashing a label per lookup.
// A function builds its index once; Function.Index checks it against
// Blocks (one pointer and three label comparisons per block, no hashing)
// and rebuilds it only when the blocks changed, so an index always
// describes the function as it is, even one mutated after Add.
type BlockIndex struct {
	entries []indexEntry
	// first maps each label to the first position holding it; only a
	// lookup whose position hint misses consults it.
	first map[string]int32
	dup   int
}

// indexEntry is one block as the index saw it.
type indexEntry struct {
	b                *Block
	label, then, els string
	// canon is the first position holding label: the block's own
	// position unless an earlier block has the same label.
	canon int32
	// thenAt and elsAt are the first positions labelled then and els, or
	// -1 when no block has that label.
	thenAt, elsAt int32
}

func newBlockIndex(blocks []*Block) *BlockIndex {
	x := &BlockIndex{
		entries: make([]indexEntry, len(blocks)),
		first:   make(map[string]int32, len(blocks)),
		dup:     -1,
	}
	for i, b := range blocks {
		canon, seen := x.first[b.Label]
		if !seen {
			canon = int32(i)
			x.first[b.Label] = canon
		} else if x.dup < 0 {
			x.dup = i
		}
		x.entries[i] = indexEntry{b: b, label: b.Label, then: b.Term.Then, els: b.Term.Else, canon: canon}
	}
	for i := range x.entries {
		e := &x.entries[i]
		e.thenAt, e.elsAt = x.lookup(e.then), x.lookup(e.els)
	}
	return x
}

func (x *BlockIndex) lookup(label string) int32 {
	if i, ok := x.first[label]; ok {
		return i
	}
	return -1
}

// current reports whether the index still describes blocks.
func (x *BlockIndex) current(blocks []*Block) bool {
	if len(blocks) != len(x.entries) {
		return false
	}
	for i, b := range blocks {
		e := &x.entries[i]
		if b != e.b || b.Label != e.label || b.Term.Then != e.then || b.Term.Else != e.els {
			return false
		}
	}
	return true
}

// Index returns f's block index, rebuilding it if Blocks, a label or a
// terminator target changed since it was built. Program.Add builds it, so
// the functions of a program handed to other goroutines carry a current
// index and concurrent calls only read it.
func (f *Function) Index() *BlockIndex {
	if x := f.index.Load(); x != nil && x.current(f.Blocks) {
		return x
	}
	x := newBlockIndex(f.Blocks)
	f.index.Store(x)
	return x
}

// Pos returns the first position in Blocks labelled label, or -1. hint is
// the position the caller expects (say, one past the previous block of a
// segment); when it holds the label no hashing happens. Any hint,
// including -1, gives the same answer.
func (x *BlockIndex) Pos(label string, hint int) int {
	if uint(hint) < uint(len(x.entries)) && x.entries[hint].label == label {
		return int(x.entries[hint].canon)
	}
	return int(x.lookup(label))
}

// Then returns the position of the block at i's Term.Then label, or -1
// when no block has it.
func (x *BlockIndex) Then(i int) int { return int(x.entries[i].thenAt) }

// Else returns the position of the block at i's Term.Else label, or -1
// when no block has it.
func (x *BlockIndex) Else(i int) int { return int(x.entries[i].elsAt) }

// Duplicate returns the first position whose label an earlier block
// already has, or -1 when every label is unique.
func (x *BlockIndex) Duplicate() int { return x.dup }
