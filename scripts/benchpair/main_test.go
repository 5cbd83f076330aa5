package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestQuartiles holds the quartiles to the values Python's
// statistics.quantiles(xs, n=4, method="inclusive") gives.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{5, 1, 4, 2, 3}, [3]float64{2, 3, 4}},
		{[]float64{4, 3, 2, 1}, [3]float64{1.75, 2.5, 3.25}},
		{[]float64{20, 10}, [3]float64{12.5, 15, 17.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{3.25, 5.5, 7.75}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// output is what perfbench prints for one run, with one metric line of
// the several it prints.
func output(correct bool, failed int, metrics map[string]float64) string {
	var parts []string
	for _, name := range []string{"op_ms_p50", "rss_mb", "verify.equiv_us"} {
		if v, ok := metrics[name]; ok {
			parts = append(parts, fmt.Sprintf(`%q:{"value":%g,"unit":"x"}`, name, v))
		}
	}
	return fmt.Sprintf("# perfbench workload=optimize\nmetric op_ms_p50 1 ms n=1\n{\"correct\":%t,\"attempted\":10,\"failed\":%d,\"metrics\":{%s}}\n",
		correct, failed, strings.Join(parts, ","))
}

var fixtureBench = benchmark{
	EndToEnd: []metricSpec{
		{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	},
	PerLayer: []metricSpec{{Name: "verify.equiv_us", Unit: "us", Better: "lower"}},
}

// fixture writes ten pairs of optimize at seed 1 (the parent reads 100
// to 109 ms, the change 20 ms less, except in the pairs listed in lose,
// and the change fails one operation in pair failPair) and three traced
// runs per side, and returns the comparison.
func fixture(t *testing.T, lose map[int]bool, rss float64, failPair int) (report, []string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for n := 1; n <= 10; n++ {
		par := float64(99 + n)
		chg := par - 20
		if lose[n] {
			chg = par + 1
		}
		write(fmt.Sprintf("optimize.s1.p%d.parent.out", n), output(true, 0, map[string]float64{"op_ms_p50": par, "rss_mb": 20}))
		failed := 0
		if n == failPair {
			failed = 1
		}
		write(fmt.Sprintf("optimize.s1.p%d.change.out", n), output(true, failed, map[string]float64{"op_ms_p50": chg, "rss_mb": rss}))
	}
	for n, v := range map[int][2]float64{1: {60, 30}, 2: {50, 40}, 3: {70, 20}} {
		write(fmt.Sprintf("optimize.s1.t%d.parent.out", n), output(true, 0, map[string]float64{"verify.equiv_us": v[0]}))
		write(fmt.Sprintf("optimize.s1.t%d.change.out", n), output(true, 0, map[string]float64{"verify.equiv_us": v[1]}))
	}
	write("notes.txt", "not a run")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[key]run{}
	for _, e := range entries {
		k, ok := parseName(e.Name())
		if !ok {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		r, err := readRun(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		runs[k] = r
	}
	return compare(fixtureBench, runs, "optimize/op_ms_p50")
}

func TestCompareFixture(t *testing.T) {
	rep, bad := fixture(t, map[int]bool{4: true}, 21, 0)
	if len(bad) != 0 {
		t.Fatalf("a 9/10 claim with rss within its bound reported %v", bad)
	}
	if len(rep.Pairs) != 10 || rep.Pairs[0].First != "parent" || rep.Pairs[1].First != "change" {
		t.Fatalf("pairs %+v", rep.Pairs)
	}
	op := rep.Summary[0]
	want := summary{
		Workload: "optimize", Seed: 1, Metric: "op_ms_p50", Unit: "ms", Pairs: 10,
		Parent:        sideStats{Median: 104.5, Q1: 102.25, Q3: 106.75},
		Change:        sideStats{Median: 85.5, Q1: 82.5, Q3: 87.75},
		ChangeOverPar: 0.8182, ChangeWins: 9, Bound: 0.25, WithinBound: true, GainRuleMet: true,
	}
	if !reflect.DeepEqual(op, want) {
		t.Fatalf("op_ms_p50 summary\n got  %+v\n want %+v", op, want)
	}
	if rss := rep.Summary[1]; rss.Metric != "rss_mb" || rss.ChangeWins != 0 || !rss.WithinBound || rss.GainRuleMet {
		t.Fatalf("rss_mb summary %+v", rss)
	}
	wantTrace := []layer{{
		Workload: "optimize", Seed: 1, Metric: "verify.equiv_us", Unit: "us",
		ParentRuns: []float64{60, 50, 70}, ChangeRuns: []float64{30, 40, 20},
		ParentMedian: 60, ChangeMedian: 30, ChangeOverPar: 0.5,
	}}
	if !reflect.DeepEqual(rep.Trace, wantTrace) {
		t.Fatalf("trace\n got  %+v\n want %+v", rep.Trace, wantTrace)
	}
}

func TestCompareFailures(t *testing.T) {
	_, bad := fixture(t, map[int]bool{4: true, 7: true}, 25, 3)
	if len(bad) != 3 || !strings.Contains(bad[0], "pair 3: the change run is incorrect or failed 1 of 10") ||
		!strings.Contains(bad[1], "gain rule (8/10 wins") || !strings.Contains(bad[2], "rss_mb") {
		t.Fatalf("an 8/10 claim with rss 25%% over and a failed operation reported %q", bad)
	}
}
