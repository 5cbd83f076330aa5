package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/arch"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/sim/cpu"
	"repro/internal/trace"
)

// RecordTrace runs one experiment sample and returns the client's
// instruction trace for a single steady-state path invocation — the
// trace-file artifact of the paper's methodology. The trace can be replayed
// against arbitrary machine geometries with the internal/trace package.
func RecordTrace(cfg Config) (*trace.Trace, error) {
	roundtrips := cfg.Warmup + cfg.Measured
	if roundtrips < 4 {
		cfg.Warmup, cfg.Measured = 4, 4
		roundtrips = 8
	}
	hp, err := buildPair(cfg, 0, roundtrips)
	if err != nil {
		return nil, err
	}
	t := &trace.Trace{}
	rec := t.Recorder()
	ch := hp.clientHost
	hp.onRoundtrip(func(n int) {
		switch n {
		case roundtrips - 2:
			ch.Engine.Observer = rec
		case roundtrips - 1:
			ch.Engine.Observer = nil
		}
	})
	hp.startFn()
	hp.q.Run(1_000_000)
	if hp.completedFn() < roundtrips {
		return nil, fmt.Errorf("core: trace run stalled")
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	return t, nil
}

// A sweepPoint names one machine geometry of a sensitivity sweep.
type sweepPoint struct {
	label   string
	machine arch.Machine
}

// A sweep is one sensitivity study: the geometries it replays and the
// pair of versions it compares on them.
type sweep struct {
	name string
	// title is the report's heading, formatted with the stack.
	title  string
	a, b   Version
	points func() []sweepPoint
}

// sweeps are the sensitivity studies Sensitivity runs, by name. The spec
// check and its error message both list them from here.
var sweeps = []sweep{
	{"cache", geometryTitle, STD, ALL, cacheSweep},
	{"machine", geometryTitle, STD, ALL, machineSweep},
	{"assoc", "Replay of %v BAD vs ALL traces across geometries", BAD, ALL, assocSweep},
}

const geometryTitle = "Sensitivity of the %v techniques to machine geometry (trace replay)"

// SweepNames lists the sweeps Sensitivity accepts, in order.
func SweepNames() []string {
	names := make([]string, len(sweeps))
	for i, s := range sweeps {
		names[i] = s.name
	}
	return names
}

// cacheSweep varies the i-cache size around the DEC 3000/600's 8 KB: the
// techniques matter most when the path does not fit.
func cacheSweep() []sweepPoint {
	var pts []sweepPoint
	for _, kb := range []int{4, 8, 16, 32, 64} {
		m := arch.DEC3000_600()
		m.ICacheBytes = kb * 1024
		pts = append(pts, sweepPoint{fmt.Sprintf("%dKB i-cache", kb), m})
	}
	return pts
}

// machineSweep contrasts the paper's testbed with its concluding remark's
// "low-cost 266 MHz processor with a 66 MB/s memory system". Both points
// come from the curated matrix (internal/machines), the single source of
// truth for machine variants.
func machineSweep() []sweepPoint {
	var pts []sweepPoint
	for _, p := range []struct{ name, label string }{
		{"dec3000", "dec3000 (175 MHz, 100 MB/s)"},
		{"future266", "future266 (266 MHz, 66 MB/s)"},
	} {
		m, err := machines.ByName(p.name)
		if err != nil {
			panic(err) // matrix names are compile-time constants; see machines tests
		}
		pts = append(pts, sweepPoint{p.label, m.Machine})
	}
	return pts
}

// assocSweep varies first-level cache associativity: the paper observes
// that inlining is "frequently misused to avoid replacement misses in the
// small associativity caches commonly found in high-performance RISC
// architectures" — this sweep asks how much of the layout problem LRU
// associativity would have absorbed in hardware.
func assocSweep() []sweepPoint {
	var pts []sweepPoint
	for _, a := range []int{1, 2, 4} {
		m := arch.DEC3000_600()
		m.Assoc = a
		pts = append(pts, sweepPoint{fmt.Sprintf("%d-way L1 caches", a), m})
	}
	return pts
}

// recordPair records one trace per version, concurrently (each recording is
// an independent simulated run).
func recordPair(kind StackKind, versions []Version, q Quality) ([]*trace.Trace, error) {
	traces := make([]*trace.Trace, len(versions))
	err := forEachIndexed(len(versions), Parallelism(), func(i int) error {
		cfg := q.Apply(DefaultConfig(kind, versions[i]))
		cfg.Samples = 1
		t, err := RecordTrace(cfg)
		if err != nil {
			return fmt.Errorf("record %v: %w", versions[i], err)
		}
		traces[i] = t
		return nil
	})
	return traces, err
}

// Sensitivity runs the named sweep: it records one trace of each of the
// sweep's two versions once and replays both across its geometries,
// reporting each point's mCPI and the relative processing-time advantage
// of the second version — for STD vs ALL, the paper's argument that the
// techniques grow more important as the processor/memory gap widens.
// Replays are pure functions of (trace, machine), so all points run
// concurrently and assemble in sweep order.
func Sensitivity(kind StackKind, name string, q Quality) (obs.Table, error) {
	i := slices.IndexFunc(sweeps, func(s sweep) bool { return s.name == name })
	if i < 0 {
		return obs.Table{}, fmt.Errorf("core: unknown sweep %q (want %s)", name, strings.Join(SweepNames(), " or "))
	}
	sw := sweeps[i]
	traces, err := recordPair(kind, []Version{sw.a, sw.b}, q)
	if err != nil {
		return obs.Table{}, err
	}
	points := sw.points()
	rows := make([][2]cpu.Metrics, len(points))
	err = forEachIndexed(len(points), Parallelism(), func(i int) error {
		for j := range traces {
			m, _, err := trace.Replay(traces[j], points[i].machine)
			if err != nil {
				return fmt.Errorf("replay %s: %w", points[i].label, err)
			}
			rows[i][j] = m
		}
		return nil
	})
	if err != nil {
		return obs.Table{}, err
	}
	t := obs.Table{Name: "sensitivity", Title: fmt.Sprintf(sw.title, kind),
		Columns: []string{"machine", strings.ToLower(sw.a.String()) + "_mcpi", strings.ToLower(sw.b.String()) + "_mcpi", "speedup_pct", "saved_us"}}
	for i, pt := range points {
		ma, mb := rows[i][0], rows[i][1]
		saved := float64(ma.Cycles) - float64(mb.Cycles)
		t.Rows = append(t.Rows, []string{pt.label, fmt.Sprintf("%.2f", ma.MCPI()), fmt.Sprintf("%.2f", mb.MCPI()),
			fmt.Sprintf("%.1f", 100*saved/float64(ma.Cycles)), fmt.Sprintf("%.1f", saved/pt.machine.CyclesPerMicrosecond())})
	}
	return t, nil
}
