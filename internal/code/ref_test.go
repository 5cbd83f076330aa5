package code

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
)

// refCall is the engine as it was before block bodies compiled into runs:
// one cpu.Step per body instruction, with the observer fed just before
// each step, and one binding lookup per operand (refDataAddr). The
// differential tests hold Engine.call to it.
func refCall(e *Engine, pl *Placement, env *Binding, depth int) error {
	name := pl.fn.Name
	if depth > maxCallDepth {
		return fmt.Errorf("code: call depth exceeded at %q (cycle in code models?)", name)
	}
	if e.Attr != nil {
		e.Attr.EnterFunc(name)
	}
	pb := pl.entry
	for {
		addr := pb.addr
		for i := range pb.b.Instrs {
			in := &pb.b.Instrs[i]
			entry := cpu.Entry{Addr: addr, Op: in.Op}
			if in.Op.AccessesMemory() {
				entry.DataAddr = refDataAddr(env, in)
			}
			e.step(entry)
			addr += instrBytes
			if in.IsCall() && in.Op == arch.OpJump {
				callee, err := e.prog.callee(in)
				if err == nil {
					err = refCall(e, callee, env, depth+1)
				}
				if err != nil {
					if e.Attr != nil {
						e.Attr.ExitFunc(name)
					}
					return err
				}
			}
		}
		switch pb.b.Term.Kind {
		case TermRet:
			for i := range pl.fn.Epilogue {
				ein := &pl.fn.Epilogue[i]
				entry := cpu.Entry{Addr: addr, Op: ein.Op}
				if ein.Op.AccessesMemory() {
					entry.DataAddr = refDataAddr(env, ein)
				}
				e.step(entry)
				addr += instrBytes
			}
			e.step(cpu.Entry{Addr: addr, Op: arch.OpJump, Taken: true})
			if e.Attr != nil {
				e.Attr.ExitFunc(name)
			}
			return nil

		case TermJump:
			succ := pb.then
			if succ != pb.fallThrough {
				e.step(cpu.Entry{Addr: addr, Op: arch.OpBr, Taken: true})
			}
			pb = succ

		case TermCond:
			id := pb.b.cond
			if id == 0 {
				id = valueSyms.lookup(pb.b.Term.Cond)
			}
			then, els := pb.then, pb.els
			succ := then
			if !env.cond(id) {
				succ = els
			}
			switch {
			case els == pb.fallThrough:
				e.step(cpu.Entry{Addr: addr, Op: arch.OpCondBr, Taken: succ == then})
			case then == pb.fallThrough:
				e.step(cpu.Entry{Addr: addr, Op: arch.OpCondBr, Taken: succ == els})
			default:
				e.step(cpu.Entry{Addr: addr, Op: arch.OpCondBr, Taken: succ == then})
				if succ != then {
					e.step(cpu.Entry{Addr: addr + instrBytes, Op: arch.OpBr, Taken: true})
				}
			}
			pb = succ
		}
	}
}

// refDataAddr resolves one operand on its own, in the fallback order the
// engine keeps: a binding of its name (of $stack for an unnamed operand,
// whose offset then wraps at 256), else its static address, else
// DefaultDataBase.
func refDataAddr(env *Binding, in *Instr) uint64 {
	if in.data == 0 {
		if base, ok := env.addr(stackID); ok {
			return base + uint64(in.Off)%256
		}
		return DefaultDataBase + uint64(in.Off)
	}
	if base, ok := env.addr(in.data); ok {
		return base + uint64(in.Off)
	}
	if in.staticOK {
		return in.staticBase + uint64(in.Off)
	}
	return DefaultDataBase + uint64(in.Off)
}

// TestRunOperandsMatchReference executes one run that mixes unnamed,
// explicit $stack, bound and static operands, with a name repeated both
// next to and apart from itself, and a condition closure that rebinds one
// operand between the two blocks that run it. Every entry the compiled
// engine observes, effective addresses included, must equal the
// reference engine's, with $stack bound and unbound.
func TestRunOperandsMatchReference(t *testing.T) {
	mixed := []Instr{
		{Op: arch.OpLoad, Off: 300}, // unnamed: $stack, offset wraps at 256
		{Op: arch.OpStore, Off: 8},
		Instr{Op: arch.OpLoad, Off: 300}.WithData(stackName), // explicit: no wrap
		Instr{Op: arch.OpLoad, Off: 16}.WithData("operand.bound"),
		Instr{Op: arch.OpStore, Off: 24}.WithData("operand.bound"),
		Instr{Op: arch.OpLoad, Off: 8}.WithData("operand.static"),
		Instr{Op: arch.OpLoad, Off: 40}.WithData("operand.bound"),
		{Op: arch.OpLoad, Off: 4},
		Instr{Op: arch.OpStore, Off: 48}.WithData(stackName),
		{Op: arch.OpALU},
		Instr{Op: arch.OpLoad, Off: 56}.WithData("operand.static"),
	}
	b := NewBuilder("operands", ClassPath).Block("first")
	for _, in := range mixed {
		b.emit(in)
	}
	b.Cond("operand.rebind", "second", "second").Block("second")
	for _, in := range mixed {
		b.emit(in)
	}
	p := NewProgram()
	p.MustAdd(b.Ret().MustBuild())
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	if _, ok := p.DataAddr("operand.static"); !ok {
		t.Fatal("operand.static has no static address")
	}
	run := func(ref, bindStack bool) []cpu.Entry {
		e := NewEngine(cpu.New(mem.New(arch.DEC3000_600())), p)
		var tr []cpu.Entry
		e.Observer = func(en cpu.Entry) { tr = append(tr, en) }
		env := NewBinding(nil).Bind("operand.bound", 0x7000)
		if bindStack {
			env.Bind(stackName, 0x4000_0000)
		}
		env.SetFunc("operand.rebind", func() bool {
			env.Bind("operand.bound", 0x9000)
			return true
		})
		pl, err := p.resolve("operands")
		if err == nil {
			if ref {
				err = refCall(e, pl, env, 0)
			} else {
				err = e.call(pl, env, 0)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for _, bindStack := range []bool{true, false} {
		got, want := run(false, bindStack), run(true, bindStack)
		if len(got) != len(want) {
			t.Fatalf("$stack bound %v: %d entries, reference %d", bindStack, len(got), len(want))
		}
		rebound := false
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("$stack bound %v: entry %d is %+v, reference %+v", bindStack, i, got[i], want[i])
			}
			rebound = rebound || want[i].DataAddr == 0x9000+16
		}
		if !rebound {
			t.Errorf("$stack bound %v: the second block never read the rebound operand", bindStack)
		}
	}
}

// TestConcurrentCompileMatchesReference executes one linked program from
// several goroutines at once, on machines of two issue models, while its
// block bodies compile: every goroutine must see exactly the metrics and
// hierarchy counters the reference engine produces for its machine.
func TestConcurrentCompileMatchesReference(t *testing.T) {
	build := func() *Program {
		f := NewBuilder("f", ClassPath).
			Frame(2).
			Block("entry").ALU(5).Load("state", 3).Call("g").Store("state", 2).
			Cond("more", "entry", "done").
			Block("done").Load("ring", maxRunData+3).Mul().ALU(7).
			Ret().
			MustBuild()
		g := NewBuilder("g", ClassLibrary).ALU(9).Load("", 2).Store("ring", 1).Ret().MustBuild()
		p := NewProgram()
		p.MustAdd(f, g)
		if err := p.Link(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	wide := arch.DEC3000_600()
	wide.IssueWidth, wide.BlockBytes = 4, 64
	ms := []arch.Machine{arch.DEC3000_600(), wide}
	type outcome struct {
		m       cpu.Metrics
		i, d, b mem.Stats
	}
	exec := func(prog *Program, m arch.Machine, ref bool) outcome {
		h := mem.New(m)
		e := NewEngine(cpu.New(h), prog)
		env := NewBinding(nil)
		for k := 0; k < 4; k++ {
			env.Reset()
			env.PushCount("more", 3)
			pl, err := prog.resolve("f")
			if err == nil {
				if ref {
					err = refCall(e, pl, env, 0)
				} else {
					err = e.call(pl, env, 0)
				}
			}
			if err != nil {
				t.Error(err)
			}
		}
		return outcome{e.CPU().Metrics(), h.IStats, h.DStats, h.BStats}
	}
	want := make([]outcome, len(ms))
	for i, m := range ms {
		want[i] = exec(build(), m, true)
	}
	prog := build()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if got := exec(prog, ms[w%2], false); got != want[w%2] {
				t.Errorf("goroutine %d (width %d): %+v, reference %+v", w, ms[w%2].IssueWidth, got, want[w%2])
			}
		}(w)
	}
	wg.Wait()
}
