package verify_test

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/layout"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
	"repro/internal/verify"
)

// makeLayers builds the same synthetic stack shape the layout tests use: a
// chain of path functions each calling the next, a shared library helper,
// and an outlined error block per layer.
func makeLayers(layers, bodyALU int) *code.Program {
	p := code.NewProgram()
	lib := code.NewBuilder("lib_copy", code.ClassLibrary).
		Loop("copy", "lib.more", func(b *code.Builder) { b.Load("src", 1).Store("dst", 1).ALU(1) }).
		Ret().MustBuild()
	p.MustAdd(lib)
	for i := layers - 1; i >= 0; i-- {
		name := layerName(i)
		b := code.NewBuilder(name, code.ClassPath).Frame(2)
		b.ALU(bodyALU).Load("state", 2)
		b.Cond("err", "fail", "work")
		b.Block("fail").Kind(code.BlockError).ALU(40).Ret()
		b.Block("work").ALU(bodyALU)
		b.Call("lib_copy")
		if i < layers-1 {
			b.Call(layerName(i + 1))
		}
		b.Store("state", 2).Ret()
		p.MustAdd(b.MustBuild())
	}
	return p
}

func layerName(i int) string { return string(rune('a'+i)) + "_layer" }

func layersSpec(layers int) layout.Spec {
	s := layout.Spec{Library: []string{"lib_copy"}}
	for i := 0; i < layers; i++ {
		s.Path = append(s.Path, layerName(i))
	}
	return s
}

func wantReason(t *testing.T, err error, want verify.Reason) {
	t.Helper()
	if err == nil {
		t.Fatalf("sabotage not detected, want reason %q", want)
	}
	var ve *verify.VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("error is %T, want *verify.VerifyError: %v", err, err)
	}
	if ve.Reason != want {
		t.Fatalf("reason = %q, want %q (%v)", ve.Reason, want, err)
	}
}

func TestCheckOutlineAcceptsOutliner(t *testing.T) {
	p := makeLayers(4, 20)
	q := layout.Outline(p)
	if err := verify.CheckOutline(p, q); err != nil {
		t.Fatalf("outliner output rejected: %v", err)
	}
	// Outlining is idempotent, so an already-outlined program is its own
	// valid outline.
	if err := verify.CheckOutline(q, layout.Outline(q)); err != nil {
		t.Fatalf("idempotent outline rejected: %v", err)
	}
}

func TestCheckOutlineRejectsSabotage(t *testing.T) {
	p := makeLayers(3, 10)
	t.Run("reordered blocks", func(t *testing.T) {
		q := layout.Outline(p)
		f := q.Func("a_layer")
		f.Blocks[0], f.Blocks[len(f.Blocks)-1] = f.Blocks[len(f.Blocks)-1], f.Blocks[0]
		wantReason(t, verify.CheckOutline(p, q), verify.ReasonOrderViolation)
	})
	t.Run("mutated instruction", func(t *testing.T) {
		q := layout.Outline(p)
		q.Func("a_layer").Blocks[0].Instrs[0] = code.Instr{Op: arch.OpMul}
		wantReason(t, verify.CheckOutline(p, q), verify.ReasonBlockChanged)
	})
	t.Run("dropped block", func(t *testing.T) {
		q := layout.Outline(p)
		f := q.Func("a_layer")
		f.Blocks = f.Blocks[:len(f.Blocks)-1]
		wantReason(t, verify.CheckOutline(p, q), verify.ReasonBlockSetChanged)
	})
	t.Run("dropped function", func(t *testing.T) {
		q := layout.Outline(p)
		q.Remove("lib_copy")
		wantReason(t, verify.CheckOutline(p, q), verify.ReasonFuncSetChanged)
	})
}

func TestCheckCloneAcceptsBipartite(t *testing.T) {
	p := layout.Outline(makeLayers(4, 20))
	spec := layersSpec(4)
	clo, err := layout.Bipartite(p, spec, arch.DEC3000_600(), layout.DefaultCloneBase)
	if err != nil {
		t.Fatal(err)
	}
	specialized := append(append([]string(nil), spec.Path...), spec.Library...)
	if err := verify.CheckClone(p, clo, specialized); err != nil {
		t.Fatalf("bipartite clone rejected: %v", err)
	}
	// The clone is NOT a pure move: CheckOutline must refuse it, because
	// specialization deleted instructions.
	wantReason(t, verify.CheckOutline(p, clo), verify.ReasonBlockChanged)
}

func TestCheckCloneRejectsSabotage(t *testing.T) {
	p := layout.Outline(makeLayers(3, 10))
	spec := layersSpec(3)
	specialized := append(append([]string(nil), spec.Path...), spec.Library...)
	build := func(t *testing.T) *code.Program {
		clo, err := layout.Bipartite(p, spec, arch.DEC3000_600(), layout.DefaultCloneBase)
		if err != nil {
			t.Fatal(err)
		}
		return clo
	}
	t.Run("extra instruction", func(t *testing.T) {
		clo := build(t)
		b := clo.Func("a_layer").Blocks[0]
		b.Instrs = append(b.Instrs, code.Instr{Op: arch.OpALU})
		wantReason(t, verify.CheckClone(p, clo, specialized), verify.ReasonIllegalDrop)
	})
	t.Run("unlicensed drop", func(t *testing.T) {
		clo := build(t)
		b := clo.Func("a_layer").Blocks[0]
		// Drop a plain body instruction — not a prologue slot, not a
		// call-address load.
		for i, in := range b.Instrs {
			if !in.Prologue && !in.CallLoad && !in.IsCall() {
				b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
				break
			}
		}
		wantReason(t, verify.CheckClone(p, clo, specialized), verify.ReasonIllegalDrop)
	})
	t.Run("kind change", func(t *testing.T) {
		clo := build(t)
		clo.Func("a_layer").Blocks[0].Kind = code.BlockInit
		wantReason(t, verify.CheckClone(p, clo, specialized), verify.ReasonBlockChanged)
	})
}

// TestRetargetAfterLink retargets a call of a linked clone the way
// connection cloning does, with SetCall and no relink: the engine must
// execute the new callee at once, and CheckClone must refuse the change.
// Both read the callee id SetCall interned, not a name cached at link time.
func TestRetargetAfterLink(t *testing.T) {
	p := layout.Outline(makeLayers(3, 10))
	spec := layersSpec(3)
	specialized := append(append([]string(nil), spec.Path...), spec.Library...)
	clo, err := layout.Bipartite(p, spec, arch.DEC3000_600(), layout.DefaultCloneBase)
	if err != nil {
		t.Fatal(err)
	}
	fetched := func() map[uint64]bool {
		seen := map[uint64]bool{}
		e := code.NewEngine(cpu.New(mem.New(arch.DEC3000_600())), clo)
		e.Observer = func(en cpu.Entry) { seen[en.Addr] = true }
		if err := e.Run("a_layer", code.NewBinding(nil)); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	entry := func(name string) uint64 {
		addr, ok := clo.EntryAddr(name)
		if !ok {
			t.Fatalf("%s has no entry address", name)
		}
		return addr
	}
	b, c := entry("b_layer"), entry("c_layer")
	if before := fetched(); !before[b] {
		t.Fatal("a_layer does not reach b_layer before the retarget")
	}
	n := 0
	for _, blk := range clo.Func("a_layer").Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Call() == "b_layer" {
				blk.Instrs[i].SetCall("c_layer")
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("a_layer has no call to b_layer")
	}
	if after := fetched(); after[b] || !after[c] {
		t.Fatalf("after the retarget: b_layer fetched %v, c_layer fetched %v; want false, true", after[b], after[c])
	}
	wantReason(t, verify.CheckClone(p, clo, specialized), verify.ReasonIllegalDrop)
}

func TestCheckInlineAcceptsPathInline(t *testing.T) {
	layers := 4
	p := layout.Outline(makeLayers(layers, 10))
	spec := layersSpec(layers)
	q, err := layout.PathInline(p, "a_layer", spec.Path[1:])
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckInline(p, q, "a_layer", spec.Path[1:]); err != nil {
		t.Fatalf("path-inlined root rejected: %v", err)
	}
}

func TestCheckInlineRejectsSabotage(t *testing.T) {
	layers := 3
	p := layout.Outline(makeLayers(layers, 10))
	spec := layersSpec(layers)
	build := func(t *testing.T) *code.Program {
		q, err := layout.PathInline(p, "a_layer", spec.Path[1:])
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	t.Run("extra instruction on path", func(t *testing.T) {
		q := build(t)
		b := q.Func("a_layer").Blocks[0]
		b.Instrs = append(b.Instrs, code.Instr{Op: arch.OpALU})
		wantReason(t, verify.CheckInline(p, q, "a_layer", spec.Path[1:]),
			verify.ReasonPathDivergence)
	})
	t.Run("rewired branch", func(t *testing.T) {
		q := build(t)
		f := q.Func("a_layer")
		// Invert the first conditional: the observable branch arms swap, so
		// the paths diverge on the first packet that takes the else arm.
		for _, b := range f.Blocks {
			if b.Term.Kind == code.TermCond {
				b.Term.Then, b.Term.Else = b.Term.Else, b.Term.Then
				break
			}
		}
		wantReason(t, verify.CheckInline(p, q, "a_layer", spec.Path[1:]),
			verify.ReasonPathDivergence)
	})
	t.Run("non-root touched", func(t *testing.T) {
		q := build(t)
		b := q.Func("b_layer").Blocks[0]
		b.Instrs = append(b.Instrs, code.Instr{Op: arch.OpALU})
		wantReason(t, verify.CheckInline(p, q, "a_layer", spec.Path[1:]),
			verify.ReasonBlockChanged)
	})
	t.Run("recursive inlinable", func(t *testing.T) {
		r := code.NewProgram()
		r.MustAdd(code.NewBuilder("r", code.ClassPath).ALU(1).Call("r").Ret().MustBuild())
		wantReason(t, verify.CheckInline(r, r, "r", []string{"r"}),
			verify.ReasonRecursion)
	})
}

// TestFuncSetChangeNamesFirstInLinkOrder: when several functions vanish
// (or appear) the move-only proofs name the first of them in link order,
// the same one on every run. Twenty rounds per check, since a name picked
// by ranging over a set would come out different in some of them.
func TestFuncSetChangeNamesFirstInLinkOrder(t *testing.T) {
	before := makeLayers(4, 6)
	vanished := before.Clone()
	vanished.Remove("d_layer")
	vanished.Remove("b_layer")
	vanished.Remove("c_layer")
	appeared := before.Clone()
	appeared.MustAdd(
		code.NewBuilder("z_new", code.ClassPath).ALU(1).Ret().MustBuild(),
		code.NewBuilder("y_new", code.ClassPath).ALU(1).Ret().MustBuild(),
	)
	cases := []struct {
		name          string
		before, after *code.Program
		want          string
	}{
		{"vanished", before, vanished, before.Names()[1]},
		{"appeared", before, appeared, "z_new"},
	}
	for _, tc := range cases {
		for round := 0; round < 20; round++ {
			for _, check := range []func(b, a *code.Program) error{
				verify.CheckOutline,
				func(b, a *code.Program) error { return verify.CheckClone(b, a, nil) },
			} {
				err := check(tc.before, tc.after)
				var ve *verify.VerifyError
				if !errors.As(err, &ve) || ve.Reason != verify.ReasonFuncSetChanged {
					t.Fatalf("%s: got %v, want %s", tc.name, err, verify.ReasonFuncSetChanged)
				}
				if ve.Func != tc.want {
					t.Fatalf("%s round %d: names %q, want %q, the first in link order", tc.name, round, ve.Func, tc.want)
				}
			}
		}
	}
}
