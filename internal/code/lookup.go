package code

import "fmt"

// MissingBlockError is the typed error returned when a placement lookup
// names a block the placement does not hold. Callers that previously
// discarded the ok bool of BlockAddr/BlockSize and silently skipped the
// block use this to fail loudly instead: a label without a placed address
// means the layout and the function body have drifted apart, which is a
// bug, not a display choice.
type MissingBlockError struct {
	// Func is the owning function's name ("" when the function itself is
	// unknown to the program).
	Func string
	// Block is the label that failed to resolve ("" when the lookup was
	// for the function's entry or placement as a whole).
	Block string
}

// Error implements error.
func (e *MissingBlockError) Error() string {
	switch {
	case e.Func == "":
		return "code: placement lookup on unknown function"
	case e.Block == "":
		return fmt.Sprintf("code: function %q has no placement", e.Func)
	default:
		return fmt.Sprintf("code: function %q: block %q is not placed", e.Func, e.Block)
	}
}

// BlockSpan returns the placed address and static size (in instructions,
// terminator included) of the named block, or a *MissingBlockError. It is
// the error-typed form of the BlockAddr/BlockSize pair for callers that
// must not silently skip unplaced blocks. The label resolves to the first
// block of the function carrying it; callers walking Blocks use
// BlockSpanAt, which resolves nothing.
func (p *Placement) BlockSpan(label string) (addr uint64, size int, err error) {
	for i, b := range p.fn.Blocks {
		if b.Label == label {
			return p.BlockSpanAt(i)
		}
	}
	return 0, 0, &MissingBlockError{Func: p.fn.Name, Block: label}
}

// BlockSpanAt returns the placed address and static size of the
// function's Blocks[i], or a *MissingBlockError when i is out of range or
// that block is not in the placement (a block added after Place ran).
func (p *Placement) BlockSpanAt(i int) (addr uint64, size int, err error) {
	pb := p.placed(i)
	if pb == nil {
		label := ""
		if i >= 0 && i < len(p.fn.Blocks) {
			label = p.fn.Blocks[i].Label
		}
		return 0, 0, &MissingBlockError{Func: p.fn.Name, Block: label}
	}
	return pb.addr, pb.size, nil
}

// FuncEntry returns the placed address of the named function's entry
// block, or a *MissingBlockError when the function is unknown, unplaced,
// or its entry block is missing from the placement. It is the error-typed
// form of EntryAddr.
func (p *Program) FuncEntry(name string) (uint64, error) {
	f := p.funcs[name]
	if f == nil {
		return 0, &MissingBlockError{}
	}
	pl := p.PlacementOf(f)
	if pl == nil {
		return 0, &MissingBlockError{Func: name}
	}
	addr, _, err := pl.BlockSpanAt(0)
	return addr, err
}
