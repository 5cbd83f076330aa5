package code

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/arch"
)

// TestBindingAddrTable covers the address bindings: overwrite in place,
// the $stack field, delegation to the parent on a local miss, and Reset.
func TestBindingAddrTable(t *testing.T) {
	type want struct {
		addr uint64
		ok   bool
	}
	for _, tc := range []struct {
		name   string
		parent *Binding
		setup  func(b *Binding)
		want   map[string]want
	}{
		{
			name:  "empty",
			setup: func(b *Binding) {},
			want:  map[string]want{"a": {}, stackName: {}},
		},
		{
			name:  "bind",
			setup: func(b *Binding) { b.Bind("a", 0x10).Bind("b", 0x20) },
			want:  map[string]want{"a": {0x10, true}, "b": {0x20, true}, "c": {}},
		},
		{
			name:  "overwrite",
			setup: func(b *Binding) { b.Bind("a", 0x10).Bind("b", 0x20).Bind("a", 0x30) },
			want:  map[string]want{"a": {0x30, true}, "b": {0x20, true}},
		},
		{
			name:  "stack",
			setup: func(b *Binding) { b.Bind(stackName, 0x40).Bind("a", 0x10).Bind(stackName, 0x50) },
			want:  map[string]want{stackName: {0x50, true}, "a": {0x10, true}},
		},
		{
			name:   "parent fallback",
			parent: NewBinding(nil).Bind("a", 0x1).Bind("p", 0x2).Bind(stackName, 0x3),
			setup:  func(b *Binding) { b.Bind("a", 0x10) },
			want:   map[string]want{"a": {0x10, true}, "p": {0x2, true}, stackName: {0x3, true}, "q": {}},
		},
		{
			name:   "local stack shadows parent",
			parent: NewBinding(nil).Bind(stackName, 0x3),
			setup:  func(b *Binding) { b.Bind(stackName, 0x60) },
			want:   map[string]want{stackName: {0x60, true}},
		},
		{
			name:   "reset",
			parent: NewBinding(nil).Bind("p", 0x2),
			setup: func(b *Binding) {
				b.Bind("a", 0x10).Bind(stackName, 0x40).Set("c", true)
				b.Reset()
				b.Bind("b", 0x20)
			},
			want: map[string]want{"a": {}, "b": {0x20, true}, "p": {}, stackName: {}},
		},
	} {
		b := NewBinding(nil)
		if tc.parent != nil {
			b = NewBinding(tc.parent)
		}
		tc.setup(b)
		for name, w := range tc.want {
			if a, ok := b.Addr(name); a != w.addr || ok != w.ok {
				t.Errorf("%s: Addr(%q) = %#x, %v; want %#x, %v", tc.name, name, a, ok, w.addr, w.ok)
			}
		}
	}
}

// TestBindingResetForgetsEverything binds every kind of value, resets, and
// requires the next event to see none of them, including a queued count
// that was only partly consumed.
func TestBindingResetForgetsEverything(t *testing.T) {
	b := NewBinding(nil)
	b.Bind("obj", 0x10).Bind(stackName, 0x20).
		Set("const", true).
		SetFunc("closure", func() bool { return true }).
		PushCount("count", 3)
	if !b.Cond("count") {
		t.Fatal("fresh count of 3 must read true")
	}
	b.Reset()
	for _, name := range []string{"obj", stackName} {
		if _, ok := b.Addr(name); ok {
			t.Errorf("Addr(%q) survives Reset", name)
		}
	}
	for _, name := range []string{"const", "closure", "count"} {
		if b.Cond(name) {
			t.Errorf("Cond(%q) survives Reset", name)
		}
	}
	// A count pushed after the reset starts its own queue.
	b.PushCount("count", 2)
	if got := []bool{b.Cond("count"), b.Cond("count"), b.Cond("count")}; got[0] != true || got[1] != false || got[2] != false {
		t.Errorf("count of 2 after Reset reads %v, want [true false false]", got)
	}
}

// TestQueuedCountShadows pins the lookup order: once a count is queued for
// a name, it answers for the name even after it is exhausted, and a later
// Set or SetFunc does not take over.
func TestQueuedCountShadows(t *testing.T) {
	for _, bind := range []func(*Binding){
		func(b *Binding) { b.Set("c", true) },
		func(b *Binding) { b.SetFunc("c", func() bool { return true }) },
	} {
		b := NewBinding(NewBinding(nil).Set("c", true))
		b.PushCount("c", 2)
		bind(b)
		got := []bool{b.Cond("c"), b.Cond("c"), b.Cond("c")}
		if got[0] != true || got[1] != false || got[2] != false {
			t.Errorf("count of 2 under a later binding reads %v, want [true false false]", got)
		}
	}
}

// TestBindingParentThroughEngine runs a model under a child binding whose
// parent holds the stack, an operand address and the branch condition: the
// engine's id-indexed lookups must reach the parent as Cond and Addr do.
func TestBindingParentThroughEngine(t *testing.T) {
	f := NewBuilder("f", ClassPath).
		Block("entry").Load("", 1).Load("obj", 1).Cond("c", "yes", "no").
		Block("yes").Store("obj", 1).Ret().
		Block("no").ALU(1).Ret().
		MustBuild()
	p := NewProgram()
	p.MustAdd(f)
	e := newEngine(t, p)
	parent := NewBinding(nil).Bind(stackName, 0x4000).Bind("obj", 0x9000).Set("c", true)
	tr := record(t, e, "f", NewBinding(parent))
	if tr[0].DataAddr != 0x4000 || tr[1].DataAddr != 0x9000 {
		t.Fatalf("operands at %#x and %#x, want the parent's 0x4000 and 0x9000", tr[0].DataAddr, tr[1].DataAddr)
	}
	if opCount(tr, arch.OpStore) != 1 {
		t.Fatal("the parent's condition did not steer the branch")
	}
}

// TestBindingLateName binds a name interned only after the binding sized
// its slot table, and looks up a name no table has seen.
func TestBindingLateName(t *testing.T) {
	b := NewBinding(nil).Set("early", true)
	sized := len(b.slots)
	late := "late"
	for i := 0; valueSyms.lookup(late) != 0; i++ {
		late = fmt.Sprintf("late.%d", i)
	}
	if b.Cond(late) {
		t.Fatal("an unbound late name must read false")
	}
	if id := valueSyms.lookup(late); id != 0 {
		t.Fatalf("a lookup interned %q as %d", late, id)
	}
	b.Bind(late, 0x77).Set(late, true)
	if len(b.slots) <= sized {
		t.Fatalf("slot table did not grow past %d for the late name", sized)
	}
	if a, ok := b.Addr(late); !ok || a != 0x77 || !b.Cond(late) || !b.Cond("early") {
		t.Fatalf("late name: Addr = %#x, %v; Cond = %v; early = %v", a, ok, b.Cond(late), b.Cond("early"))
	}
	var zero Binding
	if zero.Set("early", true); !zero.Cond("early") {
		t.Fatal("the zero Binding must be usable after Set")
	}
}

// TestBindingGenerationWrap forces the generation counter through its wrap:
// a slot stamped long ago must not become live again.
func TestBindingGenerationWrap(t *testing.T) {
	b := NewBinding(nil).Bind("obj", 0x10).Set("c", true) // stamped with generation 1
	b.gen = math.MaxUint32
	b.Set("other", true)
	b.Reset() // wraps to 0, which must not leave generation 1's slots live
	if _, ok := b.Addr("obj"); ok {
		t.Fatal("a slot from before the wrap is live again")
	}
	if b.Cond("c") || b.Cond("other") {
		t.Fatal("a condition from before the wrap is live again")
	}
	b.Set("c", true)
	if !b.Cond("c") {
		t.Fatal("binding after the wrap does not take")
	}
}

// TestSymtabConcurrentIntern interns overlapping name sets from 8
// goroutines at once: every goroutine must see one id per name, and the
// ids must be exactly 1..n.
func TestSymtabConcurrentIntern(t *testing.T) {
	const workers, names = 8, 200
	var tab symtab
	got := make([][]int32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]int32, names)
			for i := range ids {
				k := (i*7 + w*31) % names // a different order per goroutine
				ids[k] = tab.intern(fmt.Sprintf("n%d", k))
			}
			got[w] = ids
		}(w)
	}
	wg.Wait()
	seen := map[int32]bool{}
	for k := 0; k < names; k++ {
		id := got[0][k]
		for w := 1; w < workers; w++ {
			if got[w][k] != id {
				t.Fatalf("name n%d: goroutine %d got id %d, goroutine 0 got %d", k, w, got[w][k], id)
			}
		}
		if id < 1 || id > names || seen[id] {
			t.Fatalf("name n%d: id %d is out of 1..%d or reused", k, id, names)
		}
		seen[id] = true
	}
	if tab.size() != names {
		t.Fatalf("size %d after %d names", tab.size(), names)
	}
}

// TestInstrSize pins Instr at 56 bytes: the engine reads one per executed
// instruction, so field order that adds padding costs cache lines.
func TestInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n > 56 {
		t.Fatalf("Instr is %d bytes, want at most 56", n)
	}
}

// TestPlacedBlockSize pins placedBlock in the 64-byte size class: every
// Place allocates one per block, and the layout search places thousands of
// candidates, so a field that tips it into the next class shows up in the
// search's allocation.
func TestPlacedBlockSize(t *testing.T) {
	if n := unsafe.Sizeof(placedBlock{}); n > 64 {
		t.Fatalf("placedBlock is %d bytes, want at most 64", n)
	}
}
