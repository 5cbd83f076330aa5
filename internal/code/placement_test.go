package code

import (
	"fmt"
	"testing"
)

// TestPlaceResolvesSuccessors: Place must pre-resolve the entry block and
// every terminator/fall-through target to placed-block pointers — the
// engine's hot loop depends on them being consistent with the labels.
func TestPlaceResolvesSuccessors(t *testing.T) {
	f := NewBuilder("f", ClassPath).
		Block("entry").ALU(1).Cond("c", "left", "right").
		Block("left").ALU(1).Jump("join").
		Block("right").ALU(1).
		Block("join").ALU(1).Ret().
		MustBuild()
	p := NewProgram()
	p.MustAdd(f)
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	pl := p.Placement("f")
	if pl.fn != f {
		t.Fatal("placement does not carry its function")
	}
	if pl.entry == nil || pl.entry.b.Label != "entry" {
		t.Fatalf("entry not resolved: %+v", pl.entry)
	}
	byLabel := func(l string) *placedBlock { return pl.placed(f.Index().Pos(l, -1)) }
	for _, seg := range pl.Segments {
		for i, l := range seg.Labels {
			var want *placedBlock
			if i+1 < len(seg.Labels) {
				want = byLabel(seg.Labels[i+1])
			}
			if got := byLabel(l).fallThrough; got != want {
				t.Fatalf("%s: fall-through %v, want the next block of its segment %v", l, got, want)
			}
		}
	}
	for i, b := range f.Blocks {
		pb := &pl.blocks[i]
		if pb.b != b {
			t.Fatalf("%s: placed block %d holds %q", b.Label, i, pb.b.Label)
		}
		switch b.Term.Kind {
		case TermJump:
			if pb.then == nil || pb.then.b.Label != b.Term.Then {
				t.Fatalf("%s: jump target %q not resolved", b.Label, b.Term.Then)
			}
		case TermCond:
			if pb.then == nil || pb.then.b.Label != b.Term.Then ||
				pb.els == nil || pb.els.b.Label != b.Term.Else {
				t.Fatalf("%s: branch targets not resolved", b.Label)
			}
		}
	}
}

// TestLinkDataAnnotatesStaticOperands: after linking, every named operand
// must carry its linker-assigned address, matching DataAddr.
func TestLinkDataAnnotatesStaticOperands(t *testing.T) {
	f := NewBuilder("f", ClassPath).
		Load("tbl", 3).Store("tbl", 1).Load("other", 1).
		Ret().
		MustBuild()
	p := NewProgram()
	p.MustAdd(f)
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Data() == "" {
				continue
			}
			want, ok := p.DataAddr(in.Data())
			if !ok {
				t.Fatalf("symbol %q not linked", in.Data())
			}
			if !in.staticOK || in.staticBase != want {
				t.Fatalf("operand %q: annotation %v/%#x, want %#x", in.Data(), in.staticOK, in.staticBase, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no named operands checked")
	}
	// Renaming an operand drops the address linked for the old name until
	// the next LinkData assigns the new one.
	in := &f.Blocks[0].Instrs[0]
	if in.SetData("fresh"); in.Data() != "fresh" || in.staticOK {
		t.Fatalf("after SetData: Data() = %q, static address still valid: %v", in.Data(), in.staticOK)
	}
	if err := p.LinkData(); err != nil {
		t.Fatal(err)
	}
	if want, _ := p.DataAddr("fresh"); !in.staticOK || in.staticBase != want {
		t.Fatalf("relinked %q: annotation %v/%#x, want %#x", in.Data(), in.staticOK, in.staticBase, want)
	}
}

// TestLayoutFingerprintDetectsChange: the audit hash must be stable across
// calls and sensitive to placement changes.
func TestLayoutFingerprintDetectsChange(t *testing.T) {
	build := func() *Program {
		f := NewBuilder("f", ClassPath).
			Block("a").ALU(2).
			Block("b").ALU(1).Ret().
			MustBuild()
		p := NewProgram()
		p.MustAdd(f)
		return p
	}
	p := build()
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	fp := p.LayoutFingerprint()
	if fp != p.LayoutFingerprint() {
		t.Fatal("fingerprint not stable")
	}
	q := build()
	if _, err := q.PlaceSequential("f", DefaultTextBase+0x100, nil); err != nil {
		t.Fatal(err)
	}
	if err := q.FinishLayout(); err != nil {
		t.Fatal(err)
	}
	if q.LayoutFingerprint() == fp {
		t.Fatal("fingerprint blind to placement change")
	}

	// Executing the program must leave the fingerprint untouched.
	e := newEngine(t, build())
	if fp2 := e.Program().LayoutFingerprint(); fp2 != fp {
		t.Fatalf("identical builds disagree: %x vs %x", fp, fp2)
	}
	env := NewBinding(nil)
	if err := e.Run("f", env); err != nil {
		t.Fatal(err)
	}
	if e.Program().LayoutFingerprint() != fp {
		t.Fatal("execution mutated the program")
	}
}

// TestFinishTextOverlapMessageDeterministic: two functions of many blocks
// placed at the same address overlap block for block, with every pair an
// exact duplicate. FinishText must name the same pair on every run: of
// two blocks starting at one address, the one later in link order.
// Twenty rounds, since an order taken from ranging over a set of blocks
// would differ in some of them.
func TestFinishTextOverlapMessageDeterministic(t *testing.T) {
	shape := func(name string) *Function {
		b := NewBuilder(name, ClassPath)
		for i := 0; i < 24; i++ {
			b.Block(string(rune('a' + i))).ALU(1 + i%3)
		}
		return b.Ret().MustBuild()
	}
	for round := 0; round < 20; round++ {
		p := NewProgram()
		p.MustAdd(shape("f"), shape("g"))
		for _, n := range []string{"f", "g"} {
			if _, err := p.PlaceSequential(n, DefaultTextBase, nil); err != nil {
				t.Fatal(err)
			}
		}
		err := p.FinishText()
		want := fmt.Sprintf("code: FinishText: g at %#x overlaps f ending at %#x", DefaultTextBase, DefaultTextBase+4)
		if err == nil || err.Error() != want {
			t.Fatalf("round %d: %v, want %q", round, err, want)
		}
	}
}
