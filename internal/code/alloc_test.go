package code

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
)

// TestEngineStepLoopAllocFree pins the engine's steady-state execution at
// zero heap allocations per model invocation. The run loop (data-address
// resolution into the engine's fixed buffer, Binding condition and address
// lookups, compiled-run execution and cache simulation) is the hot path of
// every experiment sample; an allocation introduced there multiplies by
// the dynamic run count and reintroduces the GC pressure that used to
// serialize the parallel runner. Block bodies compile on first execution,
// so the warm-up event pays that once; after it nothing allocates, even
// with more loads and stores in a block than one run holds. The loop also
// rebuilds the binding the way every simulated event does — Reset, then
// the stack, the address bindings (one overwritten), the conditions and
// two queued loop counts — so a steady-state event allocates nothing
// either.
func TestEngineStepLoopAllocFree(t *testing.T) {
	f := NewBuilder("hot", ClassPath).
		Frame(2).
		Block("entry").ALU(3).Load("state", 2).Load("ring", 1).Store("state", 1).Store("unbound", 0).
		Cond("more", "entry", "done").
		Block("done").ALU(1).Load("ring", maxRunData+5).Call("leaf").Store("state", 3).
		Loop("copy", "copy.more", func(b *Builder) { b.Load("", 1) }).
		Loop("again", "copy.more", func(b *Builder) { b.Store("", 1) }).
		Ret().
		MustBuild()
	leaf := NewBuilder("leaf", ClassLibrary).ALU(5).Load("", 2).Ret().MustBuild()
	p := NewProgram()
	p.MustAdd(f, leaf)
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	e := NewEngine(cpu.New(mem.New(arch.DEC3000_600())), p)
	env := NewBinding(nil)
	more := Counter(func() int { return 8 })
	event := func() {
		env.Reset()
		env.Bind("$stack", 0x2000)
		env.Bind("state", 0x1000)
		env.Bind("ring", 0x3000)
		env.Bind("state", 0x1100)
		env.SetFunc("more", more)
		env.PushCount("copy.more", 3).PushCount("copy.more", 2)
		e.MustRun("hot", env)
	}

	event() // warm the caches, the binding's storage and any lazy state
	allocs := testing.AllocsPerRun(50, event)
	if allocs != 0 {
		t.Fatalf("engine event allocates %.1f objects per run, want 0", allocs)
	}
}

// TestEngineRunWithObserverAllocFree covers the traced variants: installing
// an Observer must not make the loop allocate either (each entry is rebuilt
// from the run and passed by value to a pre-bound closure), nor must the
// Executed hook coverage uses, and the hook must see every instruction the
// Observer sees.
func TestEngineRunWithObserverAllocFree(t *testing.T) {
	f := NewBuilder("hot", ClassPath).
		ALU(16).Load("state", 3).Call("leaf").Store("", 2).ALU(4).Ret().
		MustBuild()
	leaf := NewBuilder("leaf", ClassLibrary).Load("", maxRunData+1).Ret().MustBuild()
	p := NewProgram()
	p.MustAdd(f, leaf)
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	e := NewEngine(cpu.New(mem.New(arch.DEC3000_600())), p)
	var n, covered int
	e.Observer = func(cpu.Entry) { n++ }
	e.MustRun("hot", nil)
	env := NewBinding(nil)
	allocs := testing.AllocsPerRun(50, func() {
		e.MustRun("hot", env)
	})
	if allocs != 0 {
		t.Fatalf("observed step loop allocates %.1f objects per run, want 0", allocs)
	}

	n = 0
	e.MustRun("hot", env)
	e.Observer = nil
	e.Executed = func(_ uint64, k int) { covered += k }
	e.MustRun("hot", env)
	if covered != n {
		t.Fatalf("Executed hook saw %d instructions of a run, the observer %d", covered, n)
	}
	allocs = testing.AllocsPerRun(50, func() {
		e.MustRun("hot", env)
	})
	if allocs != 0 {
		t.Fatalf("step loop with the Executed hook allocates %.1f objects per run, want 0", allocs)
	}
}
