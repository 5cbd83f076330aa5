package code

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
)

// TestEngineStepLoopAllocFree pins the engine's steady-state execution at
// zero heap allocations per model invocation. The per-instruction step loop
// (entry construction, Binding condition and address lookups, cache simulation)
// is the hot path of every experiment sample; an allocation introduced there
// multiplies by the dynamic instruction count and reintroduces the GC
// pressure that used to serialize the parallel runner. The loop also
// rebuilds the binding the way every simulated event does — Reset, then
// the stack, the address bindings (one overwritten), the conditions and
// two queued loop counts — so a steady-state event allocates nothing
// either.
func TestEngineStepLoopAllocFree(t *testing.T) {
	f := NewBuilder("hot", ClassPath).
		Frame(2).
		Block("entry").ALU(3).Load("state", 2).Load("ring", 1).Store("state", 1).Store("unbound", 0).
		Cond("more", "entry", "done").
		Block("done").ALU(1).
		Loop("copy", "copy.more", func(b *Builder) { b.Load("", 1) }).
		Loop("again", "copy.more", func(b *Builder) { b.Store("", 1) }).
		Ret().
		MustBuild()
	p := NewProgram()
	p.MustAdd(f)
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

// TestEngineRunWithObserverAllocFree covers the traced variant: installing an
// Observer must not make the loop allocate either (the entry is passed by
// value to a pre-bound closure).
func TestEngineRunWithObserverAllocFree(t *testing.T) {
	f := NewBuilder("hot", ClassPath).
		ALU(16).Ret().
		MustBuild()
	p := NewProgram()
	p.MustAdd(f)
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	e := NewEngine(cpu.New(mem.New(arch.DEC3000_600())), p)
	var n int
	e.Observer = func(cpu.Entry) { n++ }
	e.MustRun("hot", nil)
	env := NewBinding(nil)
	allocs := testing.AllocsPerRun(50, func() {
		e.MustRun("hot", env)
	})
	if allocs != 0 {
		t.Fatalf("observed step loop allocates %.1f objects per run, want 0", allocs)
	}
}
