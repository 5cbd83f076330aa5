package verify

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/code"
)

// TestWalkTextRefusesBadOrders holds the overlap walk to its contract: it
// accepts the address order FinishText kept, and refuses an order that
// drops a block, swaps two, names one twice, misstates an address, names
// a block it did not verify or describes an earlier placement, so that
// only a sort can then clear or convict the layout.
func TestWalkTextRefusesBadOrders(t *testing.T) {
	m := arch.DEC3000_600()
	ib := uint64(m.InstrBytes)
	fn := func(name string) *code.Function {
		b := code.NewBuilder(name, code.ClassPath)
		for _, l := range []string{"a", "b", "c"} {
			b.Block(l).ALU(2)
		}
		// e falls through to d: a placed block of no instructions.
		b.Block("e").Block("d").ALU(2)
		return b.Ret().MustBuild()
	}
	p := code.NewProgram()
	p.MustAdd(fn("f"), fn("g"))
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	sc := new(scratch)
	walk := func(text []code.TextBlock) bool {
		t.Helper()
		sc.begin(p)
		n, err := sc.checkPacking(p, ib)
		if err != nil {
			t.Fatal(err)
		}
		return sc.walkText(p, text, ib, n)
	}
	kept := append([]code.TextBlock(nil), p.TextOrder()...)
	for _, x := range kept {
		if x.Func == 0 && x.Slot == 3 {
			t.Fatal("f.e, slot 3, is placed with instructions; the empty-block case below needs it empty")
		}
	}
	if !walk(kept) {
		t.Fatal("the kept address order was refused")
	}
	edit := func(f func(text []code.TextBlock) []code.TextBlock) []code.TextBlock {
		return f(append([]code.TextBlock(nil), kept...))
	}
	for name, text := range map[string][]code.TextBlock{
		"a block dropped": edit(func(x []code.TextBlock) []code.TextBlock { return x[1:] }),
		"two blocks swapped": edit(func(x []code.TextBlock) []code.TextBlock {
			x[2], x[3] = x[3], x[2]
			return x
		}),
		"a block named twice": edit(func(x []code.TextBlock) []code.TextBlock {
			x[3] = x[2]
			return x
		}),
		"an address misstated": edit(func(x []code.TextBlock) []code.TextBlock {
			x[len(x)-1].Addr += ib
			return x
		}),
		"the empty block named instead of the first": edit(func(x []code.TextBlock) []code.TextBlock {
			x[0] = code.TextBlock{Func: 0, Slot: 3}
			return x
		}),
	} {
		if walk(text) {
			t.Errorf("%s: accepted", name)
		}
	}

	// The kept order of an earlier placement: g moved in front of f.
	g := p.Placement("g")
	if err := p.Place("g", []code.Segment{{Addr: code.DefaultTextBase - g.End() + g.Segments[0].Addr, Labels: g.Segments[0].Labels}}); err != nil {
		t.Fatal(err)
	}
	if walk(kept) {
		t.Error("the order kept before g moved was accepted")
	}
	if !walk(p.TextOrder()) {
		t.Error("the order of the current placement was refused")
	}
}
