package obs

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
)

// conflictFixture builds two functions placed exactly one i-cache size
// apart, so every block of beta maps onto the same direct-mapped sets as
// alpha and alternating calls evict each other on every iteration.
func conflictFixture(t *testing.T) (*cpu.CPU, *code.Engine, *code.Program) {
	t.Helper()
	alpha := code.NewBuilder("alpha", code.ClassPath).
		Frame(2).Block("entry").ALU(24).Ret().MustBuild()
	beta := code.NewBuilder("beta", code.ClassLibrary).
		Frame(2).Block("entry").ALU(24).Ret().MustBuild()
	p := code.NewProgram()
	p.MustAdd(alpha, beta)
	m := arch.DEC3000_600()
	if _, err := p.PlaceSequential("alpha", code.DefaultTextBase, nil); err != nil {
		t.Fatalf("place alpha: %v", err)
	}
	if _, err := p.PlaceSequential("beta", code.DefaultTextBase+uint64(m.ICacheBytes), nil); err != nil {
		t.Fatalf("place beta: %v", err)
	}
	if err := p.FinishLayout(); err != nil {
		t.Fatalf("FinishLayout: %v", err)
	}
	c := cpu.New(mem.New(m))
	return c, code.NewEngine(c, p), p
}

func TestCollectorAttribution(t *testing.T) {
	c, e, p := conflictFixture(t)
	col := NewCollector(c, p)
	c.Hierarchy().BeginEpoch()
	col.Attach(e)
	for i := 0; i < 50; i++ {
		e.MustRun("alpha", nil)
		e.MustRun("beta", nil)
	}
	col.Detach(e)
	prof := col.Profile()

	for _, name := range []string{"alpha", "beta"} {
		fs := prof.Funcs[name]
		if fs == nil {
			t.Fatalf("no stats for %q", name)
		}
		if fs.Calls != 50 {
			t.Errorf("%s: calls = %d, want 50", name, fs.Calls)
		}
		if fs.Instructions == 0 || fs.Cycles == 0 {
			t.Errorf("%s: empty attribution: %+v", name, fs)
		}
		if fs.IReplMisses == 0 {
			t.Errorf("%s: no replacement misses despite conflicting placement", name)
		}
		if fs.IMissesByKind["main"] == 0 {
			t.Errorf("%s: replacement misses not classified by block kind: %v",
				name, fs.IMissesByKind)
		}
	}
	if prof.Funcs["alpha"].Partition != "path" {
		t.Errorf("alpha partition = %q, want path", prof.Funcs["alpha"].Partition)
	}
	if prof.Funcs["beta"].Partition != "library" {
		t.Errorf("beta partition = %q, want library", prof.Funcs["beta"].Partition)
	}

	// Attribution must reconcile with the CPU's own counters: everything
	// executed since Attach is charged somewhere.
	ti, tc, _ := prof.Totals()
	m := c.Metrics()
	if ti != m.Instructions || tc != m.Cycles {
		t.Errorf("totals (%d instr, %d cyc) != CPU metrics (%d, %d)",
			ti, tc, m.Instructions, m.Cycles)
	}

	// The conflict sets must name both functions.
	conflicts := prof.TopConflicts(4)
	if len(conflicts) == 0 {
		t.Fatal("no conflict sets recorded")
	}
	if len(conflicts[0].ByFunc) < 2 {
		t.Errorf("hottest set names %d functions, want both: %v",
			len(conflicts[0].ByFunc), conflicts[0].ByFunc)
	}

	// And so must the rendered heatmap.
	heat := prof.Heatmap(4)
	if !strings.Contains(heat, "alpha(") || !strings.Contains(heat, "beta(") {
		t.Errorf("heatmap does not name both conflicting functions:\n%s", heat)
	}

	top := prof.TopTable(5)
	for _, want := range []string{"alpha", "beta", "mCPI", "(total)"} {
		if !strings.Contains(top, want) {
			t.Errorf("top table missing %q:\n%s", want, top)
		}
	}
}

func TestDetachRemovesHooks(t *testing.T) {
	c, e, p := conflictFixture(t)
	col := NewCollector(c, p)
	col.Attach(e)
	e.MustRun("alpha", nil)
	col.Detach(e)
	if e.Attr != nil {
		t.Error("Detach left engine Attr hook installed")
	}
	if c.Hierarchy().OnIMiss != nil {
		t.Error("Detach left OnIMiss hook installed")
	}
	before := *col.Profile().Funcs["alpha"]
	e.MustRun("alpha", nil)
	after := *col.Profile().Funcs["alpha"]
	if before.Calls != after.Calls {
		t.Error("detached collector still observing calls")
	}
}

func TestProfileDocDeterministic(t *testing.T) {
	render := func() []byte {
		c, e, p := conflictFixture(t)
		col := NewCollector(c, p)
		c.Hierarchy().BeginEpoch()
		col.Attach(e)
		for i := 0; i < 20; i++ {
			e.MustRun("alpha", nil)
			e.MustRun("beta", nil)
		}
		col.Detach(e)
		doc := Document{
			Manifest: Manifest{Schema: SchemaVersion, Parallelism: "any",
				Machine: arch.DEC3000_600()},
			Runs: []Run{{Stack: "tcpip", Version: "STD",
				Profile: col.Profile().Doc(8)}},
		}
		b, err := doc.Marshal()
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		return b
	}
	a, b := render(), render()
	if string(a) != string(b) {
		t.Error("identical profiles marshalled to different bytes")
	}
	if !strings.Contains(string(a), "\"set_conflicts\"") {
		t.Error("profile doc missing set_conflicts")
	}
	if !strings.HasSuffix(string(a), "}\n") {
		t.Error("document does not end with newline")
	}
}

func TestPhaseSplit(t *testing.T) {
	p := PhaseSplit{WireUS: 1, ControllerUS: 2, ProcessUS: 3, TimerWaitUS: 4}
	if p.TotalUS() != 10 {
		t.Errorf("TotalUS = %v, want 10", p.TotalUS())
	}
	q := p.Scale(0.5)
	if q.TotalUS() != 5 {
		t.Errorf("Scale(0.5).TotalUS = %v, want 5", q.TotalUS())
	}
	q.Add(p)
	if q.WireUS != 1.5 || q.TotalUS() != 15 {
		t.Errorf("Add: got %+v", q)
	}
}

func TestCacheDocString(t *testing.T) {
	c := CacheDoc{Accesses: 10, Misses: 4, ReplMisses: 1}
	if got, want := c.String(), "acc=10 miss=4 repl=1"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
