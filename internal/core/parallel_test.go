package core

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/protocols/features"
)

// TestFirstEmptyResult: First must not panic on a result with no samples.
func TestFirstEmptyResult(t *testing.T) {
	var r Result
	if s := r.First(); s != (Sample{}) {
		t.Fatalf("First on empty result = %+v, want zero sample", s)
	}
}

// TestBuildProgramMemoized: identical keys share one linked image; distinct
// keys do not; the cached image agrees with a cold build.
func TestBuildProgramMemoized(t *testing.T) {
	m := arch.DEC3000_600()
	feat := features.Improved()
	p1, err := BuildProgram(StackTCPIP, ALL, feat, Bipartite, m)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := BuildProgram(StackTCPIP, ALL, feat, Bipartite, m)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("same key built twice: cache not shared")
	}
	p3, err := BuildProgram(StackTCPIP, PIN, feat, Bipartite, m)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("different versions share a program")
	}
	cold, err := BuildProgramUncached(StackTCPIP, ALL, feat, Bipartite, m)
	if err != nil {
		t.Fatal(err)
	}
	if cold.LayoutFingerprint() != p1.LayoutFingerprint() {
		t.Fatal("cold build disagrees with cached build")
	}
}

// TestProgramsImmutableAcrossRuns is the mutation audit behind the shared
// program cache: executing experiments (including the pessimal layout and
// the fully optimized one, across both stacks) must leave the linked images
// untouched.
func TestProgramsImmutableAcrossRuns(t *testing.T) {
	m := arch.DEC3000_600()
	feat := features.Improved()
	type probe struct {
		kind StackKind
		v    Version
	}
	probes := []probe{{StackTCPIP, STD}, {StackTCPIP, BAD}, {StackTCPIP, ALL}, {StackRPC, ALL}}
	before := map[probe]uint64{}
	for _, pr := range probes {
		p, err := BuildProgram(pr.kind, pr.v, feat, Bipartite, m)
		if err != nil {
			t.Fatal(err)
		}
		before[pr] = p.LayoutFingerprint()
	}
	for _, pr := range probes {
		cfg := quickCfg(pr.kind, pr.v)
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%v/%v: %v", pr.kind, pr.v, err)
		}
	}
	for _, pr := range probes {
		p, err := BuildProgram(pr.kind, pr.v, feat, Bipartite, m)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.LayoutFingerprint(); got != before[pr] {
			t.Fatalf("%v/%v: program mutated during execution (fingerprint %x -> %x)",
				pr.kind, pr.v, before[pr], got)
		}
	}
}

// withParallelism runs f under a fixed pool width and restores the default.
func withParallelism(t *testing.T, n int, f func()) {
	t.Helper()
	SetParallelism(n)
	defer SetParallelism(0)
	f()
}

// TestParallelRunMatchesSerial: the worker pool must be invisible in the
// output — parallel Run produces a Result deep-equal to serial Run.
func TestParallelRunMatchesSerial(t *testing.T) {
	cfg := quickCfg(StackTCPIP, ALL)
	cfg.Samples = 4
	var serial, parallel *Result
	var err error
	withParallelism(t, 1, func() { serial, err = Run(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	withParallelism(t, 4, func() { parallel, err = Run(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel result differs from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestParallelRunVersionsMatchesSerial covers the Table-4 cell set: every
// version of a stack, run concurrently, must reproduce the serial sweep
// byte for byte.
func TestParallelRunVersionsMatchesSerial(t *testing.T) {
	q := Quality{Warmup: 3, Measured: 4, Samples: 2}
	var serial, parallel map[Version]*Result
	var err error
	withParallelism(t, 1, func() { serial, err = RunVersions(StackTCPIP, q) })
	if err != nil {
		t.Fatal(err)
	}
	withParallelism(t, 4, func() { parallel, err = RunVersions(StackTCPIP, q) })
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Versions() {
		if !reflect.DeepEqual(serial[v], parallel[v]) {
			t.Fatalf("%v: parallel cell differs from serial", v)
		}
	}
}

// TestParallelTablesMatchSerial renders the derived exhibits both ways: the
// rendered text is the determinism contract users actually see.
func TestParallelTablesMatchSerial(t *testing.T) {
	q := Quality{Warmup: 3, Measured: 4, Samples: 1}
	render := func() (string, string) {
		t1, err := Table1Data(q)
		if err != nil {
			t.Fatal(err)
		}
		sens, err := Sensitivity(StackTCPIP, "machine", q)
		if err != nil {
			t.Fatal(err)
		}
		return RenderTable(t1), RenderTable(sens)
	}
	var t1s, sensS, t1p, sensP string
	withParallelism(t, 1, func() { t1s, sensS = render() })
	withParallelism(t, 4, func() { t1p, sensP = render() })
	if t1s != t1p {
		t.Fatalf("Table 1 differs under parallelism:\nserial:\n%s\nparallel:\n%s", t1s, t1p)
	}
	if sensS != sensP {
		t.Fatalf("Sensitivity differs under parallelism:\nserial:\n%s\nparallel:\n%s", sensS, sensP)
	}
}

// TestForEachIndexedErrorOrder: the reported error must be the lowest-index
// failure regardless of scheduling, matching a serial loop.
func TestForEachIndexedErrorOrder(t *testing.T) {
	errAt := func(i int) error {
		if i == 2 || i == 5 {
			return &indexErr{i}
		}
		return nil
	}
	for _, workers := range []int{1, 3, 8} {
		err := forEachIndexed(8, workers, errAt)
		ie, ok := err.(*indexErr)
		if !ok || ie.i != 2 {
			t.Fatalf("workers=%d: got %v, want failure at index 2", workers, err)
		}
	}
}

type indexErr struct{ i int }

func (e *indexErr) Error() string { return "fail" }
