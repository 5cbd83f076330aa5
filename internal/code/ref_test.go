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
// each step. The differential tests hold Engine.call to it.
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
				entry.DataAddr = dataAddr(env, in)
			}
			e.step(entry)
			addr += instrBytes
			if in.Call != "" && in.Op == arch.OpJump {
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
					entry.DataAddr = dataAddr(env, ein)
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
