package layout

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/verify"
)

// Footprint renders a Figure 2-style i-cache footprint map of the named
// functions (all placed functions when names is nil): each character is one
// cache block, rows wrap at the i-cache size so a column corresponds to a
// cache set. '#' marks mainline code, 'o' outlined (cold) code, '.' a gap.
// A named function that is missing or unplaced, or a block the placement
// lost, is an error: a footprint that silently skips code would hide
// exactly the layout bugs it exists to show.
func Footprint(p *code.Program, names []string, m arch.Machine) (string, error) {
	if names == nil {
		names = p.Names()
	}
	g := verify.NewGeometry(m)
	ib := uint64(m.InstrBytes)
	type span struct {
		lo, hi uint64
		cold   bool
	}
	var spans []span
	var lo, hi uint64
	for _, n := range names {
		f := p.Func(n)
		if f == nil {
			return "", &code.MissingBlockError{}
		}
		pl := p.Placement(n)
		if pl == nil {
			return "", &code.MissingBlockError{Func: n}
		}
		for i, b := range f.Blocks {
			addr, size, err := pl.BlockSpanAt(i)
			if err != nil {
				return "", err
			}
			if size == 0 {
				continue
			}
			end := addr + uint64(size)*ib
			spans = append(spans, span{addr, end, b.Kind.Outlinable()})
			if lo == 0 || addr < lo {
				lo = addr
			}
			if end > hi {
				hi = end
			}
		}
	}
	if len(spans) == 0 {
		return "(empty footprint)\n", nil
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })

	lo = g.RowFloor(lo) // row-align to the cache
	nBlocks := g.BlockIndex(lo, hi-1) + 1
	cells := make([]byte, nBlocks)
	for i := range cells {
		cells[i] = '.'
	}
	for _, s := range spans {
		for a := g.BlockFloor(s.lo); a < s.hi; a += uint64(g.BlockBytes) {
			idx := g.BlockIndex(lo, a)
			if idx < 0 || idx >= nBlocks {
				continue
			}
			ch := byte('#')
			if s.cold {
				ch = 'o'
			}
			if cells[idx] == '#' {
				continue // hot wins when a block is shared
			}
			cells[idx] = ch
		}
	}

	perRow := g.BlocksPerRow()
	var sb strings.Builder
	fmt.Fprintf(&sb, "one row = one i-cache generation (%d blocks of %dB); '#' mainline, 'o' outlined, '.' gap\n",
		perRow, g.BlockBytes)
	for i := 0; i < nBlocks; i += perRow {
		end := i + perRow
		if end > nBlocks {
			end = nBlocks
		}
		fmt.Fprintf(&sb, "%#08x |%s|\n", lo+uint64(i*g.BlockBytes), cells[i:end])
	}
	return sb.String(), nil
}

// FootprintStats summarizes a footprint: blocks of mainline, outlined code,
// and gap within the occupied extent.
func FootprintStats(p *code.Program, names []string, m arch.Machine) (hot, cold, gap int, err error) {
	text, err := Footprint(p, names, m)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, ch := range text {
		switch ch {
		case '#':
			hot++
		case 'o':
			cold++
		case '.':
			gap++
		}
	}
	return hot, cold, gap, nil
}
