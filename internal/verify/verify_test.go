package verify_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/verify"
)

// buildStack constructs a small two-layer stack with a shared library
// helper, an outlined error block, and a deliberately-unreferenced cold
// stub (the BSD-style dead error code the real models keep).
func buildStack(t *testing.T) *code.Program {
	t.Helper()
	p := code.NewProgram()
	lib := code.NewBuilder("lib_copy", code.ClassLibrary).
		Frame(1).ALU(6).Ret().MustBuild()
	inner := code.NewBuilder("b_layer", code.ClassPath).Frame(2).
		ALU(4).Call("lib_copy").Ret().MustBuild()
	b := code.NewBuilder("a_layer", code.ClassPath).Frame(2)
	b.ALU(3).Load("state", 1)
	b.Cond("err", "fail", "work")
	b.Block("fail").Kind(code.BlockError).ALU(9).Ret()
	b.Block("work").ALU(2).Call("lib_copy").Call("b_layer").Ret()
	b.Block("panic").Kind(code.BlockError).ALU(5).Ret()
	p.MustAdd(lib, inner, b.MustBuild())
	return p
}

// place packs every function sequentially and finishes the layout.
func place(t *testing.T, p *code.Program) {
	t.Helper()
	cursor := uint64(0x10000)
	for _, n := range p.Names() {
		end, err := p.PlaceSequential(n, cursor, nil)
		if err != nil {
			t.Fatalf("place %s: %v", n, err)
		}
		cursor = end
	}
	if err := p.FinishLayout(); err != nil {
		t.Fatalf("finish layout: %v", err)
	}
}

func placedStack(t *testing.T) *code.Program {
	p := buildStack(t)
	place(t, p)
	return p
}

func TestProgramAcceptsWellFormed(t *testing.T) {
	if err := verify.Program(placedStack(t), arch.DEC3000_600()); err != nil {
		t.Fatalf("well-formed program rejected: %v", err)
	}
}

// TestProgramCorpus sabotages a well-formed program one invariant at a time
// and asserts the verifier reports the matching typed reason.
func TestProgramCorpus(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *code.Program
		want  verify.Reason
	}{
		{"no blocks", func(t *testing.T) *code.Program {
			p := placedStack(t)
			p.Func("lib_copy").Blocks = nil
			return p
		}, verify.ReasonNoBlocks},
		{"duplicate label", func(t *testing.T) *code.Program {
			p := placedStack(t)
			f := p.Func("a_layer")
			f.Blocks[2].Label = f.Blocks[1].Label
			return p
		}, verify.ReasonDuplicateLabel},
		{"dangling label", func(t *testing.T) *code.Program {
			p := placedStack(t)
			p.Func("a_layer").Blocks[0].Term.Then = "ghost"
			return p
		}, verify.ReasonDanglingLabel},
		{"bad terminator kind", func(t *testing.T) *code.Program {
			p := placedStack(t)
			p.Func("a_layer").Blocks[0].Term.Kind = 99
			return p
		}, verify.ReasonBadTerminator},
		{"empty condition", func(t *testing.T) *code.Program {
			p := placedStack(t)
			p.Func("a_layer").Blocks[0].Term.Cond = ""
			return p
		}, verify.ReasonBadTerminator},
		{"unreachable mainline block", func(t *testing.T) *code.Program {
			p := placedStack(t)
			f := p.Func("a_layer")
			f.Blocks = append(f.Blocks, &code.Block{
				Label: "orphan", Term: code.Term{Kind: code.TermRet},
			})
			return p
		}, verify.ReasonUnreachable},
		{"unresolved call", func(t *testing.T) *code.Program {
			p := buildStack(t)
			retargetCall(t, p.Func("a_layer"), "ghost")
			return p
		}, verify.ReasonUnresolvedCall},
		{"recursive call", func(t *testing.T) *code.Program {
			p := buildStack(t)
			retargetCall(t, p.Func("a_layer"), "a_layer")
			return p
		}, verify.ReasonRecursion},
		{"unplaced function", func(t *testing.T) *code.Program {
			return buildStack(t)
		}, verify.ReasonUnplacedFunc},
		{"unplaced block", func(t *testing.T) *code.Program {
			p := placedStack(t)
			f := p.Func("a_layer")
			f.Blocks = append(f.Blocks, &code.Block{
				Label: "late", Kind: code.BlockError,
				Term: code.Term{Kind: code.TermRet},
			})
			return p
		}, verify.ReasonUnplacedBlock},
		{"stale placement (dropped cold block)", func(t *testing.T) *code.Program {
			p := placedStack(t)
			f := p.Func("a_layer")
			// Drop the unreferenced cold stub the way a buggy outliner
			// might: the placement still names it.
			kept := f.Blocks[:0:0]
			for _, b := range f.Blocks {
				if b.Label != "panic" {
					kept = append(kept, b)
				}
			}
			f.Blocks = kept
			return p
		}, verify.ReasonStalePlacement},
		{"segment escape (mutated body)", func(t *testing.T) *code.Program {
			p := placedStack(t)
			b := p.Func("a_layer").Block("work")
			b.Instrs = append(b.Instrs, code.Instr{Op: arch.OpALU})
			return p
		}, verify.ReasonSegmentEscape},
		{"segment escape (reordered segment)", func(t *testing.T) *code.Program {
			p := placedStack(t)
			seg := &p.Placement("a_layer").Segments[0]
			seg.Labels[0], seg.Labels[1] = seg.Labels[1], seg.Labels[0]
			return p
		}, verify.ReasonSegmentEscape},
		{"misaligned segment", func(t *testing.T) *code.Program {
			p := placedStack(t)
			p.Placement("a_layer").Segments[0].Addr += 2
			return p
		}, verify.ReasonMisaligned},
		{"overlapping placements", func(t *testing.T) *code.Program {
			p := buildStack(t)
			for _, n := range p.Names() {
				if _, err := p.PlaceSequential(n, 0x10000, nil); err != nil {
					t.Fatalf("place %s: %v", n, err)
				}
			}
			return p
		}, verify.ReasonOverlap},
	}
	m := arch.DEC3000_600()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := verify.Program(tc.build(t), m)
			if err == nil {
				t.Fatalf("sabotage %q not detected", tc.name)
			}
			var ve *verify.VerifyError
			if !errors.As(err, &ve) {
				t.Fatalf("error is %T, want *verify.VerifyError: %v", err, err)
			}
			if ve.Reason != tc.want {
				t.Fatalf("reason = %q, want %q (%v)", ve.Reason, tc.want, err)
			}
		})
	}
}

// retargetCall redirects the function's first call (load and jsr) to a new
// callee.
func retargetCall(t *testing.T, f *code.Function, to string) {
	t.Helper()
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].IsCall() {
				b.Instrs[i].SetCall(to)
				if !b.Instrs[i].CallLoad {
					return
				}
			}
		}
	}
	t.Fatalf("%s has no call to retarget", f.Name)
}

func TestCallGraphCycle(t *testing.T) {
	p := code.NewProgram()
	p.MustAdd(
		code.NewBuilder("a", code.ClassPath).Call("b").Ret().MustBuild(),
		code.NewBuilder("b", code.ClassPath).Call("c").Ret().MustBuild(),
		code.NewBuilder("c", code.ClassPath).Call("b").Ret().MustBuild(),
	)
	cyc := verify.ProgramCallGraph(p).Cycle()
	if len(cyc) != 3 || cyc[0] != "b" || cyc[1] != "c" || cyc[2] != "b" {
		t.Fatalf("cycle = %v, want [b c b]", cyc)
	}
	p2 := buildStack(t)
	if cyc := verify.ProgramCallGraph(p2).Cycle(); cyc != nil {
		t.Fatalf("acyclic stack reported cycle %v", cyc)
	}
}

func TestReachableDiamond(t *testing.T) {
	b := code.NewBuilder("d", code.ClassPath)
	b.Cond("x", "l", "r")
	b.Block("l").ALU(1).Jump("join")
	b.Block("r").ALU(2).Jump("join")
	b.Block("join").ALU(1).Ret()
	b.Block("dead").Kind(code.BlockError).ALU(1).Ret()
	f := b.MustBuild()
	reach := verify.FuncCFG(f).Reachable()
	for _, l := range []string{f.Blocks[0].Label, "l", "r", "join"} {
		if !reach[l] {
			t.Fatalf("label %q not reachable", l)
		}
	}
	if reach["dead"] {
		t.Fatal("dead stub reported reachable")
	}
}

func TestGeometryMatchesMachine(t *testing.T) {
	m := arch.DEC3000_600()
	g := verify.NewGeometry(m)
	if g.BlockBytes != m.BlockBytes || g.RowBytes != m.ICacheBytes {
		t.Fatalf("geometry %+v does not mirror machine", g)
	}
	if want := m.ICacheBytes / m.BlockBytes / m.Assoc; g.Sets != want {
		t.Fatalf("sets = %d, want %d", g.Sets, want)
	}
	base := uint64(0x30_0000)
	if g.Set(base) != g.Set(base+uint64(m.ICacheBytes)) {
		t.Fatal("addresses one cache apart must alias to the same set")
	}
	if g.Set(base) == g.Set(base+uint64(m.BlockBytes)) {
		t.Fatal("adjacent blocks must not share a set in a direct-mapped cache")
	}
	if g.BlockFloor(base+5) != base {
		t.Fatal("BlockFloor broken")
	}
	if g.RowFloor(base+uint64(m.ICacheBytes)-1) != base {
		t.Fatal("RowFloor broken")
	}
	if n := len(g.SpanBlocks(base, base+uint64(3*m.BlockBytes))); n != 3 {
		t.Fatalf("SpanBlocks covered %d blocks, want 3", n)
	}
	if g.SpanBlocks(base, base) != nil {
		t.Fatal("empty span must touch no blocks")
	}
	if g.BlockIndex(base, base+uint64(2*m.BlockBytes)) != 2 {
		t.Fatal("BlockIndex broken")
	}
}

// TestChecksKeepNoImageAlive: once a check returns, its pooled scratch
// holds nothing of the program it read, so the first collection after
// the caller drops an image frees it. A pool that kept the last image it
// read would keep a whole candidate, with its placements, alive for as
// long as the checks keep running.
func TestChecksKeepNoImageAlive(t *testing.T) {
	m := arch.DEC3000_600()
	spec := verify.CostSpec{PathSpec: verify.PathSpec{Path: []string{"a_layer"}, Library: []string{"lib_copy"}}}
	for name, check := range map[string]func(ref, p *code.Program){
		"Program":    func(_, p *code.Program) { _ = verify.Program(p, m) },
		"CheckClone": func(ref, p *code.Program) { _ = verify.CheckClone(ref, p, nil) },
		"Cost":       func(_, p *code.Program) { _, _ = verify.Cost(p, spec, m) },
		"Candidate":  func(ref, p *code.Program) { _, _, _ = verify.Candidate(ref, p, spec, m) },
	} {
		freed := make(chan struct{})
		func() {
			ref, p := buildStack(t), placedStack(t)
			runtime.SetFinalizer(p, func(*code.Program) { close(freed) })
			check(ref, p)
		}()
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(5 * time.Second):
			t.Errorf("%s: the image it read outlived a collection after it returned", name)
		}
	}
}
