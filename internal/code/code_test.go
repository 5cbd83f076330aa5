package code

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
)

func newEngine(t *testing.T, p *Program) *Engine {
	t.Helper()
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	c := cpu.New(mem.New(arch.DEC3000_600()))
	return NewEngine(c, p)
}

// record runs fn under env and returns the emitted trace.
func record(t *testing.T, e *Engine, fn string, env *Binding) []cpu.Entry {
	t.Helper()
	var tr []cpu.Entry
	e.Observer = func(en cpu.Entry) { tr = append(tr, en) }
	if err := e.Run(fn, env); err != nil {
		t.Fatalf("Run(%s): %v", fn, err)
	}
	e.Observer = nil
	return tr
}

func opCount(tr []cpu.Entry, op arch.Op) int {
	n := 0
	for _, e := range tr {
		if e.Op == op {
			n++
		}
	}
	return n
}

func takenCount(tr []cpu.Entry) int {
	n := 0
	for _, e := range tr {
		if e.Op.IsBranch() && (e.Taken || e.Op != arch.OpCondBr) {
			n++
		}
	}
	return n
}

func TestBuilderBasics(t *testing.T) {
	f, err := NewBuilder("f", ClassPath).
		Frame(2).
		ALU(3).Load("state", 2).Store("state", 1).
		Ret().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if f.StaticInstrs() != 3+2+1+3 { // body + frame (1 ALU + 2 stores)
		t.Fatalf("StaticInstrs = %d", f.StaticInstrs())
	}
	if len(f.Epilogue) != 3 { // 2 loads + 1 ALU
		t.Fatalf("epilogue = %d instrs", len(f.Epilogue))
	}
}

func TestBuilderImplicitFallthrough(t *testing.T) {
	f := NewBuilder("f", ClassPath).
		Block("a").ALU(1).
		Block("b").ALU(1).Ret().
		MustBuild()
	if f.Blocks[0].Term.Kind != TermJump || f.Blocks[0].Term.Then != "b" {
		t.Fatalf("block a terminator = %+v, want fall to b", f.Blocks[0].Term)
	}
}

func TestValidateCatchesBadTargets(t *testing.T) {
	f := &Function{Name: "bad", Blocks: []*Block{
		{Label: "entry", Term: Term{Kind: TermJump, Then: "nowhere"}},
	}}
	if err := f.Validate(); err == nil {
		t.Fatal("Validate accepted jump to unknown label")
	}
	dup := &Function{Name: "dup", Blocks: []*Block{
		{Label: "x", Term: Term{Kind: TermRet}},
		{Label: "x", Term: Term{Kind: TermRet}},
	}}
	if err := dup.Validate(); err == nil {
		t.Fatal("Validate accepted duplicate labels")
	}
}

func TestFallThroughEmitsNoBranch(t *testing.T) {
	f := NewBuilder("f", ClassPath).
		Block("a").ALU(2).Jump("b").
		Block("b").ALU(2).Ret().
		MustBuild()
	p := NewProgram()
	p.MustAdd(f)
	e := newEngine(t, p)
	tr := record(t, e, "f", nil)
	// a(2) + b(2) + ret jump = 5 instructions; the a->b jump is elided
	// because b is physically adjacent.
	if len(tr) != 5 {
		t.Fatalf("trace length = %d, want 5: %v", len(tr), tr)
	}
	if got := opCount(tr, arch.OpBr); got != 0 {
		t.Fatalf("emitted %d unconditional branches for a fall-through", got)
	}
}

func TestNonAdjacentJumpEmitsBranch(t *testing.T) {
	f := NewBuilder("f", ClassPath).
		Block("a").ALU(2).Jump("c").
		Block("b").Kind(BlockError).ALU(4).Ret().
		Block("c").ALU(2).Ret().
		MustBuild()
	p := NewProgram()
	p.MustAdd(f)
	e := newEngine(t, p)
	tr := record(t, e, "f", nil)
	if got := opCount(tr, arch.OpBr); got != 1 {
		t.Fatalf("emitted %d branches, want 1 (a jumps over b)", got)
	}
}

func TestCondBranchPolarityFollowsPlacement(t *testing.T) {
	build := func() *Function {
		return NewBuilder("f", ClassPath).
			Block("entry").ALU(1).Cond("err", "fail", "ok").
			Block("fail").Kind(BlockError).ALU(6).Ret().
			Block("ok").ALU(1).Ret().
			MustBuild()
	}

	// Source order: entry, fail, ok. Good path must *take* the branch to
	// hop over the inline error block.
	p := NewProgram()
	p.MustAdd(build())
	e := newEngine(t, p)
	env := NewBinding(nil).Set("err", false)
	tr := record(t, e, "f", env)
	if got := takenCount(tr); got != 2 { // cond branch over fail + ret
		t.Fatalf("source order: taken branches = %d, want 2", got)
	}

	// Outlined order: entry, ok, fail. Good path falls through.
	p2 := NewProgram()
	p2.MustAdd(build())
	if _, err := p2.PlaceSequential("f", DefaultTextBase, []string{"entry", "ok", "fail"}); err != nil {
		t.Fatal(err)
	}
	if err := p2.FinishLayout(); err != nil {
		t.Fatal(err)
	}
	c := cpu.New(mem.New(arch.DEC3000_600()))
	e2 := NewEngine(c, p2)
	tr2 := record(t, e2, "f", NewBinding(nil).Set("err", false))
	if got := takenCount(tr2); got != 1 { // only the ret
		t.Fatalf("outlined order: taken branches = %d, want 1", got)
	}
	if len(tr2) != len(tr) {
		t.Fatalf("dynamic length changed: %d vs %d", len(tr2), len(tr))
	}

	// Error path under outlined order pays the extra jump.
	tr3 := record(t, e2, "f", NewBinding(nil).Set("err", true))
	if got := takenCount(tr3); got != 2 { // branch to fail + ret
		t.Fatalf("outlined error path: taken = %d, want 2", got)
	}
}

func TestCondNeitherSideAdjacent(t *testing.T) {
	f := NewBuilder("f", ClassPath).
		Block("entry").ALU(1).Cond("c", "x", "y").
		Block("pad").Kind(BlockError).ALU(3).Ret().
		Block("x").ALU(1).Ret().
		Block("y").ALU(1).Ret().
		MustBuild()
	p := NewProgram()
	p.MustAdd(f)
	e := newEngine(t, p)
	// Taking the Else side executes condbr (not taken) + explicit br.
	trElse := record(t, e, "f", NewBinding(nil).Set("c", false))
	if got := opCount(trElse, arch.OpBr); got != 1 {
		t.Fatalf("else path emitted %d br, want 1", got)
	}
	trThen := record(t, e, "f", NewBinding(nil).Set("c", true))
	if got := opCount(trThen, arch.OpBr); got != 0 {
		t.Fatalf("then path emitted %d br, want 0", got)
	}
}

func TestCallSequenceAndEpilogue(t *testing.T) {
	callee := NewBuilder("leaf", ClassLibrary).ALU(4).Ret().MustBuild()
	caller := NewBuilder("top", ClassPath).
		Frame(1).
		ALU(2).Call("leaf").ALU(2).Ret().
		MustBuild()
	p := NewProgram()
	p.MustAdd(caller, callee)
	e := newEngine(t, p)
	tr := record(t, e, "top", nil)
	// top: frame(1 alu + 1 store) + 2 alu + callload + jsr
	// leaf: 4 alu + ret-jump
	// top: 2 alu + epilogue(1 load + 1 alu) + ret-jump
	want := 2 + 2 + 2 + 5 + 2 + 2 + 1
	if len(tr) != want {
		t.Fatalf("trace length = %d, want %d", len(tr), want)
	}
	if got := opCount(tr, arch.OpJump); got != 3 { // jsr + 2 rets
		t.Fatalf("jumps = %d, want 3", got)
	}
}

func TestCountedLoop(t *testing.T) {
	f := NewBuilder("cp", ClassLibrary).
		Loop("copy", "cp.more", func(b *Builder) { b.Load("src", 1).Store("dst", 1).ALU(1) }).
		Ret().
		MustBuild()
	p := NewProgram()
	p.MustAdd(f)
	e := newEngine(t, p)
	for _, n := range []int{1, 3, 7} {
		env := NewBinding(nil).PushCount("cp.more", n)
		tr := record(t, e, "cp", env)
		if got := opCount(tr, arch.OpLoad); got != n {
			t.Fatalf("n=%d: loads = %d", n, got)
		}
	}
	// Queued counts serve successive invocations in FIFO order.
	env := NewBinding(nil)
	env.PushCount("cp.more", 2)
	env.PushCount("cp.more", 5)
	tr1 := record(t, e, "cp", env)
	tr2 := record(t, e, "cp", env)
	if opCount(tr1, arch.OpLoad) != 2 || opCount(tr2, arch.OpLoad) != 5 {
		t.Fatalf("FIFO counts: %d then %d", opCount(tr1, arch.OpLoad), opCount(tr2, arch.OpLoad))
	}
}

func TestEnvAddressBindingAndFallback(t *testing.T) {
	f := NewBuilder("f", ClassPath).Load("tcb", 1).Ret().MustBuild()
	p := NewProgram()
	p.MustAdd(f)
	e := newEngine(t, p)

	tr := record(t, e, "f", nil)
	static, ok := p.DataAddr("tcb")
	if !ok {
		t.Fatal("tcb not linked")
	}
	if tr[0].DataAddr != static {
		t.Fatalf("unbound operand at %#x, want static %#x", tr[0].DataAddr, static)
	}

	env := NewBinding(nil).Bind("tcb", 0x5000_0000)
	tr2 := record(t, e, "f", env)
	if tr2[0].DataAddr != 0x5000_0000 {
		t.Fatalf("bound operand at %#x", tr2[0].DataAddr)
	}
}

func TestBindingParentDelegation(t *testing.T) {
	parent := NewBinding(nil).Set("x", true).Bind("obj", 0x1234)
	child := NewBinding(parent)
	if !child.Cond("x") {
		t.Fatal("child must delegate conditions to parent")
	}
	if a, ok := child.Addr("obj"); !ok || a != 0x1234 {
		t.Fatal("child must delegate addresses to parent")
	}
	child.Set("x", false)
	if child.Cond("x") {
		t.Fatal("local binding must shadow parent")
	}
	if child.Cond("unknown") {
		t.Fatal("unknown conditions default to false")
	}
}

func TestProgramCloneIndependent(t *testing.T) {
	f := NewBuilder("f", ClassPath).ALU(2).Ret().MustBuild()
	p := NewProgram()
	p.MustAdd(f)
	q := p.Clone()
	q.Func("f").Blocks[0].Instrs = nil
	if p.Func("f").StaticInstrs() != 2 {
		t.Fatal("Clone must deep-copy blocks")
	}
}

func TestPlaceRejectsPartialCoverage(t *testing.T) {
	f := NewBuilder("f", ClassPath).
		Block("a").ALU(1).Jump("b").
		Block("b").ALU(1).Ret().
		MustBuild()
	p := NewProgram()
	p.MustAdd(f)
	err := p.Place("f", []Segment{{Addr: DefaultTextBase, Labels: []string{"a"}}})
	if err == nil {
		t.Fatal("Place accepted a placement missing block b")
	}
}

func TestFinishLayoutDetectsOverlap(t *testing.T) {
	f := NewBuilder("f", ClassPath).ALU(8).Ret().MustBuild()
	g := NewBuilder("g", ClassPath).ALU(8).Ret().MustBuild()
	p := NewProgram()
	p.MustAdd(f, g)
	if _, err := p.PlaceSequential("f", DefaultTextBase, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PlaceSequential("g", DefaultTextBase+4, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.FinishLayout(); err == nil {
		t.Fatal("FinishLayout accepted overlapping functions")
	}
}

func TestCalleesAndClassString(t *testing.T) {
	f := NewBuilder("f", ClassPath).Call("x").Call("y").Call("x").Ret().MustBuild()
	got := f.Callees()
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("Callees = %v", got)
	}
	if ClassPath.String() != "path" || ClassLibrary.String() != "library" {
		t.Fatal("class names")
	}
	if BlockError.String() != "error" || BlockMain.String() != "main" {
		t.Fatal("block kind names")
	}
}

// runErr runs fn on p without linking it again and returns the error
// message ("" on success).
func runErr(p *Program, fn string) string {
	e := NewEngine(cpu.New(mem.New(arch.DEC3000_600())), p)
	if err := e.Run(fn, nil); err != nil {
		return err.Error()
	}
	return ""
}

// TestUnknownFunctionErrors pins the errors of names that resolve to no
// placement: a callee or Run target missing from the program, a callee
// removed after linking (its id must not reach a stale placement), and a
// callee added after linking that was never placed.
func TestUnknownFunctionErrors(t *testing.T) {
	for _, tc := range []struct {
		name, run, want string
		build           func(t *testing.T) *Program
	}{
		{"missing callee", "f", `code: call to unknown function "ghost"`, func(t *testing.T) *Program {
			p := NewProgram()
			p.MustAdd(NewBuilder("f", ClassPath).Call("ghost").Ret().MustBuild())
			return linked(t, p)
		}},
		{"missing run target", "missing", `code: call to unknown function "missing"`, func(t *testing.T) *Program {
			p := NewProgram()
			p.MustAdd(NewBuilder("f", ClassPath).ALU(1).Ret().MustBuild())
			return linked(t, p)
		}},
		{"callee removed after link", "f", `code: call to unknown function "g"`, func(t *testing.T) *Program {
			p := NewProgram()
			p.MustAdd(NewBuilder("f", ClassPath).Call("g").Ret().MustBuild(), NewBuilder("g", ClassPath).ALU(1).Ret().MustBuild())
			linked(t, p).Remove("g")
			return p
		}},
		{"callee never placed", "f", `code: function "late" has no placement (program not linked)`, func(t *testing.T) *Program {
			p := NewProgram()
			p.MustAdd(NewBuilder("f", ClassPath).Call("late").Ret().MustBuild())
			linked(t, p).MustAdd(NewBuilder("late", ClassPath).ALU(1).Ret().MustBuild())
			return p
		}},
		{"run target never placed", "f", `code: function "f" has no placement (program not linked)`, func(t *testing.T) *Program {
			p := NewProgram()
			p.MustAdd(NewBuilder("f", ClassPath).ALU(1).Ret().MustBuild())
			return p
		}},
	} {
		if got := runErr(tc.build(t), tc.run); got != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, got, tc.want)
		}
	}
}

func linked(t *testing.T, p *Program) *Program {
	t.Helper()
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	return p
}

// TestRecursionGuard pins the call-depth error on direct and mutual
// recursion.
func TestRecursionGuard(t *testing.T) {
	self := NewProgram()
	self.MustAdd(NewBuilder("f", ClassPath).Call("f").Ret().MustBuild())
	mutual := NewProgram()
	mutual.MustAdd(NewBuilder("a", ClassPath).Call("b").Ret().MustBuild(), NewBuilder("b", ClassPath).ALU(1).Call("a").Ret().MustBuild())
	for _, tc := range []struct {
		p       *Program
		run, at string
	}{{self, "f", "f"}, {mutual, "a", "b"}} {
		want := fmt.Sprintf("code: call depth exceeded at %q (cycle in code models?)", tc.at)
		if got := runErr(linked(t, tc.p), tc.run); got != want {
			t.Errorf("Run(%s): error %q, want %q", tc.run, got, want)
		}
	}
}

// TestUnlinkedNamesStillResolve runs a program placed without LinkData.
// Its calls and operands carry ids from the moment they were written, but
// no condition has an id and no operand a static address: the engine must
// look each condition up by name rather than treat the zero id as a
// symbol, and run the program exactly as it runs the linked one.
func TestUnlinkedNamesStillResolve(t *testing.T) {
	build := func() *Program {
		p := NewProgram()
		p.MustAdd(
			NewBuilder("f", ClassPath).Frame(1).Load("obj", 1).Cond("c", "y", "n").
				Block("y").Call("g").Ret().
				Block("n").ALU(1).Ret().MustBuild(),
			NewBuilder("g", ClassPath).Store("obj", 1).Ret().MustBuild())
		return p
	}
	env := func() *Binding { return NewBinding(nil).Set("c", true).Bind("obj", 0x9000).Bind(stackName, 0x4000) }

	want := record(t, newEngine(t, build()), "f", env())
	p := build()
	addr := uint64(DefaultTextBase)
	for _, n := range p.Names() {
		end, err := p.PlaceSequential(n, addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		addr = end
	}
	if err := p.FinishText(); err != nil {
		t.Fatal(err)
	}
	f := p.Func("f")
	if f.Blocks[0].cond != 0 || f.Blocks[1].Instrs[1].CalleeID() != p.Func("g").ID() {
		t.Fatal("premise: an unlinked program has call ids but no condition ids")
	}
	got := record(t, NewEngine(cpu.New(mem.New(arch.DEC3000_600())), p), "f", env())
	if len(got) != len(want) {
		t.Fatalf("unlinked trace has %d entries, linked %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: unlinked %+v, linked %+v", i, got[i], want[i])
		}
	}
}

func TestMainlineVsStaticInstrs(t *testing.T) {
	f := NewBuilder("f", ClassPath).
		Block("entry").ALU(10).Cond("err", "fail", "done").
		Block("fail").Kind(BlockError).ALU(30).Ret().
		Block("done").ALU(5).Ret().
		MustBuild()
	if f.StaticInstrs() != 45 {
		t.Fatalf("StaticInstrs = %d", f.StaticInstrs())
	}
	if f.MainlineInstrs() != 15 {
		t.Fatalf("MainlineInstrs = %d", f.MainlineInstrs())
	}
}

func TestDeterministicExecution(t *testing.T) {
	build := func() (*Engine, *Binding) {
		callee := NewBuilder("lib", ClassLibrary).Load("buf", 2).ALU(3).Ret().MustBuild()
		f := NewBuilder("f", ClassPath).
			Frame(2).ALU(5).Call("lib").
			Loop("l", "f.iters", func(b *Builder) { b.ALU(2).Store("out", 1) }).
			Ret().MustBuild()
		p := NewProgram()
		p.MustAdd(f, callee)
		if err := p.Link(); err != nil {
			t.Fatal(err)
		}
		c := cpu.New(mem.New(arch.DEC3000_600()))
		return NewEngine(c, p), NewBinding(nil).PushCount("f.iters", 4)
	}
	e1, env1 := build()
	e2, env2 := build()
	t1 := record(t, e1, "f", env1)
	t2 := record(t, e2, "f", env2)
	if len(t1) != len(t2) {
		t.Fatalf("non-deterministic trace lengths %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d: %+v vs %+v", i, t1[i], t2[i])
		}
	}
	if e1.CPU().Metrics() != e2.CPU().Metrics() {
		t.Fatal("metrics differ across identical runs")
	}
}

func TestSegmentBoundaryEmitsBranch(t *testing.T) {
	// A function split across two segments pays one explicit branch at
	// the split, exactly like a stripe boundary in the bipartite layout.
	f := NewBuilder("split", ClassPath).
		Block("a").ALU(4).Jump("b").
		Block("b").ALU(4).Ret().
		MustBuild()
	p := NewProgram()
	p.MustAdd(f)
	if err := p.Place("split", []Segment{
		{Addr: DefaultTextBase, Labels: []string{"a"}},
		{Addr: DefaultTextBase + 0x2000, Labels: []string{"b"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.FinishLayout(); err != nil {
		t.Fatal(err)
	}
	c := cpu.New(mem.New(arch.DEC3000_600()))
	e := NewEngine(c, p)
	tr := record(t, e, "split", nil)
	if got := opCount(tr, arch.OpBr); got != 1 {
		t.Fatalf("split function emitted %d branches, want 1", got)
	}
	// Addresses must come from both segments.
	lo, hi := false, false
	for _, en := range tr {
		if en.Addr < DefaultTextBase+0x1000 {
			lo = true
		}
		if en.Addr >= DefaultTextBase+0x2000 {
			hi = true
		}
	}
	if !lo || !hi {
		t.Fatal("execution did not span both segments")
	}
}

func TestSegmentSizeMatchesPlacement(t *testing.T) {
	f := NewBuilder("f", ClassPath).
		Block("a").ALU(3).Cond("c", "b", "d").
		Block("b").ALU(2).Ret().
		Block("d").ALU(5).Ret().
		MustBuild()
	p := NewProgram()
	p.MustAdd(f)
	labels := AllLabels(f)
	want := SegmentSize(f, labels)
	if _, err := p.PlaceSequential("f", DefaultTextBase, labels); err != nil {
		t.Fatal(err)
	}
	if err := p.FinishLayout(); err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, l := range labels {
		n, ok := p.Placement("f").BlockSize(l)
		if !ok {
			t.Fatalf("block %s unplaced", l)
		}
		got += n
	}
	if got != want {
		t.Fatalf("placed size %d != SegmentSize %d", got, want)
	}
}

func TestEpilogueUsesStackBinding(t *testing.T) {
	f := NewBuilder("f", ClassPath).Frame(2).ALU(1).Ret().MustBuild()
	p := NewProgram()
	p.MustAdd(f)
	e := newEngine(t, p)
	env := NewBinding(nil).Bind("$stack", 0x4000_0000)
	tr := record(t, e, "f", env)
	found := false
	for _, en := range tr {
		if en.Op.AccessesMemory() && en.DataAddr >= 0x4000_0000 && en.DataAddr < 0x4000_0100 {
			found = true
		}
	}
	if !found {
		t.Fatal("frame save/restore did not touch the bound stack")
	}
}
