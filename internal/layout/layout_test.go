package layout

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
)

// makeStack builds a small synthetic protocol stack: a chain of path
// functions each calling the next plus a shared library function called by
// every layer, with an inline error block per layer.
func makeStack(layers, bodyALU int) *code.Program {
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

func stackSpec(layers int) Spec {
	s := Spec{Library: []string{"lib_copy"}}
	for i := 0; i < layers; i++ {
		s.Path = append(s.Path, layerName(i))
	}
	return s
}

func stackEnv(layers int) *code.Binding {
	env := code.NewBinding(nil)
	for i := 0; i < layers; i++ {
		env.PushCount("lib.more", 4)
	}
	return env
}

// runStack links nothing; p must already be placed. It executes the path
// once with warm caches and returns the metrics and i-cache stats.
func runStack(t *testing.T, p *code.Program, layers int) (cpu.Metrics, mem.Stats) {
	t.Helper()
	h := mem.New(arch.DEC3000_600())
	c := cpu.New(h)
	e := code.NewEngine(c, p)
	root := layerName(0)
	// Warm-up invocation.
	if err := e.Run(root, stackEnv(layers)); err != nil {
		t.Fatalf("warm-up run: %v", err)
	}
	h.BeginEpoch()
	before := c.Metrics()
	if err := e.Run(root, stackEnv(layers)); err != nil {
		t.Fatalf("measured run: %v", err)
	}
	return c.Metrics().Sub(before), h.IStats
}

func TestOutlineMovesColdBlocksAndPreservesSemantics(t *testing.T) {
	p := makeStack(4, 20)
	q := Outline(p)
	f := q.Func(layerName(0))
	last := f.Blocks[len(f.Blocks)-1]
	if last.Kind != code.BlockError {
		t.Fatalf("last block after outlining = %v, want error block", last.Kind)
	}
	if p.Func(layerName(0)).Blocks[1].Kind != code.BlockError {
		t.Fatal("Outline must not mutate the input program")
	}
	// Same dynamic instruction mix modulo branch materialization: run
	// both and compare loads/stores (semantics) — they must be equal.
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	if err := q.Link(); err != nil {
		t.Fatal(err)
	}
	m1, _ := runStack(t, p, 4)
	m2, _ := runStack(t, q, 4)
	if m1.Instructions == 0 || m2.Instructions == 0 {
		t.Fatal("no instructions executed")
	}
	// Outlining must not lengthen the mainline.
	if m2.Instructions > m1.Instructions {
		t.Fatalf("outlining lengthened the path: %d -> %d", m1.Instructions, m2.Instructions)
	}
	// And it must reduce perfect-memory time via fewer taken branches.
	if m2.PerfectCycles >= m1.PerfectCycles {
		t.Fatalf("outlining did not reduce iCPI cycles: %d -> %d", m1.PerfectCycles, m2.PerfectCycles)
	}
}

func TestOutlineStats(t *testing.T) {
	p := makeStack(4, 20)
	outlined, total := OutlineStats(p, nil)
	if outlined <= 0 || outlined >= total {
		t.Fatalf("OutlineStats = %d/%d", outlined, total)
	}
	// Each layer has one 40-ALU error block.
	if outlined != 4*40 {
		t.Fatalf("outlined = %d, want 160", outlined)
	}
}

func TestSpecValidate(t *testing.T) {
	p := makeStack(2, 5)
	if err := (Spec{Path: []string{"ghost"}}).validate(p); err == nil {
		t.Fatal("spec with unknown function accepted")
	}
	if err := (Spec{Path: []string{"a_layer", "a_layer"}}).validate(p); err == nil {
		t.Fatal("spec with duplicate accepted")
	}
}

func TestSpecializeRemovesPrologueAndCallLoads(t *testing.T) {
	p := makeStack(3, 10).Clone()
	before := p.Func("a_layer").StaticInstrs()
	n := specialize(p, stackSpec(3))
	after := p.Func("a_layer").StaticInstrs()
	if n <= 0 {
		t.Fatal("specialize removed nothing")
	}
	// a_layer loses 1 prologue instr + 2 call loads (lib_copy + b_layer).
	if before-after != 3 {
		t.Fatalf("a_layer shrank by %d, want 3", before-after)
	}
}

func TestBipartiteLibraryInOwnPartition(t *testing.T) {
	m := arch.DEC3000_600()
	p := Outline(makeStack(6, 60))
	q, err := Bipartite(p, stackSpec(6), m, DefaultCloneBase)
	if err != nil {
		t.Fatal(err)
	}
	cache := uint64(m.ICacheBytes)
	lib := q.Func("lib_copy")
	libAddr, ok := q.Placement("lib_copy").BlockAddr(lib.Blocks[0].Label)
	if !ok {
		t.Fatal("library not placed")
	}
	libBytes := code.SegmentBytes(lib, code.HotLabels(lib))
	libOff := libAddr % cache
	// Every path function's hot segment must avoid the library's sets.
	for _, n := range stackSpec(6).Path {
		f := q.Func(n)
		addr, _ := q.Placement(n).BlockAddr(f.Blocks[0].Label)
		size := code.SegmentBytes(f, code.HotLabels(f))
		for b := uint64(0); b < size; b += 32 {
			off := (addr + b) % cache
			if off >= libOff && off < libOff+libBytes {
				t.Fatalf("path function %s at %#x maps into library partition [%#x,%#x)", n, addr+b, libOff, libOff+libBytes)
			}
		}
	}
}

func TestBipartiteEliminatesReplacementMisses(t *testing.T) {
	m := arch.DEC3000_600()
	layers := 10
	p := Outline(makeStack(layers, 120)) // big path: several KB
	spec := stackSpec(layers)

	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	_, stdI := runStack(t, p, layers)

	q, err := Bipartite(p, spec, m, DefaultCloneBase)
	if err != nil {
		t.Fatal(err)
	}
	_, cloI := runStack(t, q, layers)

	if cloI.ReplMisses > stdI.ReplMisses {
		t.Fatalf("bipartite increased replacement misses: %d -> %d", stdI.ReplMisses, cloI.ReplMisses)
	}
	if cloI.ReplMisses != 0 {
		t.Fatalf("bipartite left %d replacement misses; library partition should protect the library", cloI.ReplMisses)
	}
}

func TestBadLayoutThrashes(t *testing.T) {
	m := arch.DEC3000_600()
	layers := 8
	p := Outline(makeStack(layers, 100))
	spec := stackSpec(layers)

	good, err := Bipartite(p, spec, m, DefaultCloneBase)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Bad(p, spec, m)
	if err != nil {
		t.Fatal(err)
	}
	mGood, iGood := runStack(t, good, layers)
	mBad, iBad := runStack(t, bad, layers)
	if iBad.ReplMisses <= iGood.ReplMisses {
		t.Fatalf("BAD replacement misses %d not worse than bipartite %d", iBad.ReplMisses, iGood.ReplMisses)
	}
	if mBad.MCPI() <= mGood.MCPI() {
		t.Fatalf("BAD mCPI %.3f not worse than bipartite %.3f", mBad.MCPI(), mGood.MCPI())
	}
}

func TestLinearLayoutRuns(t *testing.T) {
	m := arch.DEC3000_600()
	p := Outline(makeStack(4, 30))
	q, err := Linear(p, stackSpec(4), m, DefaultCloneBase)
	if err != nil {
		t.Fatal(err)
	}
	met, _ := runStack(t, q, 4)
	if met.Instructions == 0 {
		t.Fatal("linear layout executed nothing")
	}
}

func TestMicroPositionReducesReplacementMisses(t *testing.T) {
	m := arch.DEC3000_600()
	layers := 8
	p := Outline(makeStack(layers, 100))
	spec := stackSpec(layers)

	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	_, stdI := runStack(t, p, layers)

	usage := map[string]int{"lib_copy": layers}
	q, err := MicroPosition(p, spec, usage, m, DefaultCloneBase)
	if err != nil {
		t.Fatal(err)
	}
	_, mpI := runStack(t, q, layers)
	if mpI.ReplMisses > stdI.ReplMisses {
		t.Fatalf("micro-positioning increased replacement misses: %d -> %d", stdI.ReplMisses, mpI.ReplMisses)
	}
}

func TestPathInlineCollapsesPath(t *testing.T) {
	layers := 5
	p := Outline(makeStack(layers, 30))
	spec := stackSpec(layers)
	q, err := PathInline(p, "a_layer", spec.Path[1:])
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Link(); err != nil {
		t.Fatal(err)
	}
	root := q.Func("a_layer")
	// The merged root must not call any path function anymore.
	for _, callee := range root.Callees() {
		if callee != "lib_copy" {
			t.Fatalf("inlined root still calls %s", callee)
		}
	}

	// Semantics preserved: same number of loads/stores as the original.
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	countMem := func(prog *code.Program) (n int) {
		h := mem.New(arch.DEC3000_600())
		c := cpu.New(h)
		e := code.NewEngine(c, prog)
		e.Observer = func(en cpu.Entry) {
			if en.Op.AccessesMemory() {
				n++
			}
		}
		if err := e.Run("a_layer", stackEnv(layers)); err != nil {
			t.Fatal(err)
		}
		return n
	}
	orig := countMem(p)
	inl := countMem(q)
	// Inlining removes call loads, prologue stores, and epilogue loads of
	// the 4 inlined layers, but never data accesses beyond those.
	if inl >= orig {
		t.Fatalf("inlining did not reduce memory ops: %d -> %d", orig, inl)
	}
	// 4 inlined calls: each drops 1 call load + frame (1 ALU + 2 stores)
	// + epilogue (2 loads + 1 ALU): 5 memory ops each.
	if orig-inl != 4*5 {
		t.Fatalf("memory ops dropped by %d, want 20", orig-inl)
	}

	// Fewer dynamic instructions overall.
	m1, _ := runStack(t, p, layers)
	m2, _ := runStack(t, q, layers)
	if m2.Instructions >= m1.Instructions {
		t.Fatalf("inlining did not shorten the trace: %d -> %d", m1.Instructions, m2.Instructions)
	}
}

func TestPathInlineUnknownNames(t *testing.T) {
	p := makeStack(2, 5)
	if _, err := PathInline(p, "ghost", nil); err == nil {
		t.Fatal("unknown root accepted")
	}
	if _, err := PathInline(p, "a_layer", []string{"ghost"}); err == nil {
		t.Fatal("unknown inlinable accepted")
	}
}

func TestPathInlineRecursionGuard(t *testing.T) {
	p := code.NewProgram()
	p.MustAdd(code.NewBuilder("r", code.ClassPath).ALU(1).Call("r").Ret().MustBuild())
	if _, err := PathInline(p, "r", []string{"r"}); err == nil {
		t.Fatal("recursive inlining accepted")
	}
}

func TestStripeAllocRespectsPartition(t *testing.T) {
	a := newStripeAlloc(0x10000, 8192, 0, 6144)
	var addrs []uint64
	for i := 0; i < 40; i++ {
		addr := a.place(500)
		addrs = append(addrs, addr)
	}
	for _, addr := range addrs {
		off := addr % 8192
		if off >= 6144 {
			t.Fatalf("allocation at %#x (offset %d) crosses partition boundary", addr, off)
		}
	}
	if a.Gaps() == 0 {
		t.Fatal("40x500B in 6KB stripes must skip at least once")
	}
}

// The headline layout ablation: with a path bigger than the i-cache and a
// hot library, end-to-end ordering must be BAD worst, untuned link order in
// between, bipartite best-or-equal.
func TestLayoutOrdering(t *testing.T) {
	m := arch.DEC3000_600()
	layers := 12
	p := Outline(makeStack(layers, 110))
	spec := stackSpec(layers)

	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	std, _ := runStack(t, p, layers)

	clo, err := Bipartite(p, spec, m, DefaultCloneBase)
	if err != nil {
		t.Fatal(err)
	}
	cloM, _ := runStack(t, clo, layers)

	bad, err := Bad(p, spec, m)
	if err != nil {
		t.Fatal(err)
	}
	badM, _ := runStack(t, bad, layers)

	if !(badM.Cycles > std.Cycles && std.Cycles >= cloM.Cycles) {
		t.Fatalf("ordering violated: BAD=%d STD=%d CLO=%d cycles", badM.Cycles, std.Cycles, cloM.Cycles)
	}
}

func TestCloneForConnections(t *testing.T) {
	m := arch.DEC3000_600()
	layers := 5
	p := Outline(makeStack(layers, 40))
	spec := stackSpec(layers)
	q, sel, err := CloneForConnections(p, spec, m, DefaultCloneBase, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Each connection gets its own clone of every path function.
	for conn := 0; conn < 3; conn++ {
		for _, n := range spec.Path {
			name := sel(conn, n)
			if name == n {
				t.Fatalf("selector did not map %s for conn %d", n, conn)
			}
			f := q.Func(name)
			if f == nil {
				t.Fatalf("missing clone %s", name)
			}
			// Specialization must shrink the clone.
			if f.StaticInstrs() >= q.Func(n).StaticInstrs() {
				t.Fatalf("clone %s (%d instrs) not smaller than original (%d)",
					name, f.StaticInstrs(), q.Func(n).StaticInstrs())
			}
			// Clone calls must target same-connection clones, never the
			// shared path originals.
			for _, callee := range f.Callees() {
				for _, orig := range spec.Path {
					if callee == orig {
						t.Fatalf("clone %s calls shared path function %s", name, callee)
					}
				}
			}
		}
	}
	// Library functions stay shared (single placement).
	if q.Func("lib_copy$c0") != nil {
		t.Fatal("library function was cloned per connection")
	}
	// Out-of-range connections fall back to the shared names.
	if sel(-1, spec.Path[0]) != spec.Path[0] || sel(99, spec.Path[0]) != spec.Path[0] {
		t.Fatal("selector out-of-range fallback broken")
	}
	// The layout must be executable for every connection.
	h := mem.New(m)
	c := cpu.New(h)
	e := code.NewEngine(c, q)
	for conn := 0; conn < 3; conn++ {
		if err := e.Run(sel(conn, spec.Path[0]), stackEnv(layers)); err != nil {
			t.Fatalf("conn %d clone: %v", conn, err)
		}
	}
}

func TestCloneForConnectionsRejectsBadInput(t *testing.T) {
	p := makeStack(2, 10)
	if _, _, err := CloneForConnections(p, stackSpec(2), arch.DEC3000_600(), DefaultCloneBase, 0); err == nil {
		t.Fatal("zero connections accepted")
	}
	if _, _, err := CloneForConnections(p, Spec{Path: []string{"ghost"}}, arch.DEC3000_600(), DefaultCloneBase, 1); err == nil {
		t.Fatal("bad spec accepted")
	}
}

// OutlineStats reports, for the given functions (all functions if names is
// nil), how many instructions sit in outlinable blocks versus in total —
// the "34% of the code could be outlined" measure of Table 9.
func OutlineStats(p *code.Program, names []string) (outlined, total int) {
	if names == nil {
		names = p.Names()
	}
	for _, n := range names {
		f := p.Func(n)
		if f == nil {
			continue
		}
		total += f.StaticInstrs()
		outlined += f.StaticInstrs() - f.MainlineInstrs()
	}
	return outlined, total
}

// Gaps reports the bytes of padding a stripe allocator introduced; exposed
// for tests and layout diagnostics.
func (a *stripeAlloc) Gaps() uint64 { return a.gaps }
