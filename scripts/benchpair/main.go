// Command benchpair summarizes paired perfbench runs of a parent commit and
// a change into the rounds and trace of a BENCH_*.json record.
//
//	go run ./scripts/benchpair -benchmark BENCHMARK.json -claim optimize/op_ms_p50 DIR
//
// DIR holds one perfbench output per run (everything perfbench/run.sh
// prints on stdout), named
//
//	<workload>.s<seed>.p<pair>.<parent|change>.out   a paired run (--trace 0)
//	<workload>.s<seed>.t<run>.<parent|change>.out    a traced run (--trace 1)
//
// Pairs alternate which side runs first: pair N runs the parent first when
// N is odd. A loop that makes them, from the roots of two checkouts:
//
//	for n in 1 2 3 4 5 6 7 8 9 10; do
//	  sides="parent change"; [ $((n % 2)) = 0 ] && sides="change parent"
//	  for side in $sides; do
//	    (cd $side && bash perfbench/run.sh --workload optimize --seed 1 \
//	      --seconds 10 --trace 0) > DIR/optimize.s1.p$n.$side.out
//	  done
//	done
//
// For every workload, seed and end-to-end metric of the benchmark it
// reports each side's median and inclusive quartiles (the quartiles of
// Python's statistics.quantiles with method="inclusive"), the pairs the
// change won, whether the median stays within the metric's bound
// (change/parent at most 1 + bound for a lower-is-better metric, at least
// 1 - bound for a higher-is-better one), and whether the gain rule holds:
// the change wins at least 9 in 10 of the pairs and its median beats the
// parent's by more than the parent's interquartile range. Traced runs give
// each per-layer metric's runs and medians per side. It prints one JSON
// object: {"summary": [...], "pairs": [...], "trace": [...]}.
//
// It exits 1 when a run is incorrect or failed operations, when a median
// leaves its bound, or when the claimed workload/metric misses the gain
// rule at any seed it was run at. BENCHMARK.json is only read.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// benchmark is the part of BENCHMARK.json the comparator reads.
type benchmark struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is one perfbench output: the JSON object on its last line.
type run struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// key names one run's file: its workload, seed, kind ('p' paired, 't'
// traced), number and side.
type key struct {
	workload string
	seed     int
	kind     byte
	n        int
	side     string
}

var fileName = regexp.MustCompile(`^([a-z0-9]+)\.s([0-9]+)\.([pt])([0-9]+)\.(parent|change)\.out$`)

func parseName(name string) (key, bool) {
	m := fileName.FindStringSubmatch(name)
	if m == nil {
		return key{}, false
	}
	seed, _ := strconv.Atoi(m[2])
	n, _ := strconv.Atoi(m[4])
	return key{workload: m[1], seed: seed, kind: m[3][0], n: n, side: m[5]}, true
}

// readRun parses a perfbench output: the last non-empty line must be its
// result object.
func readRun(r io.Reader) (run, error) {
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return run{}, err
	}
	var out run
	if !strings.HasPrefix(last, "{") {
		return run{}, errors.New("no result object on the last line")
	}
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return run{}, fmt.Errorf("result object: %w", err)
	}
	return out, nil
}

// quartiles returns the inclusive first quartile, median and third
// quartile of xs, as Python's statistics.quantiles(xs, n=4,
// method="inclusive") computes them; one value is all three.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	m := len(s) - 1
	q := func(i int) float64 {
		j, delta := i*m/4, i*m%4
		if delta == 0 {
			return s[j]
		}
		return (s[j]*float64(4-delta) + s[j+1]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

type sideStats struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type summary struct {
	Workload      string    `json:"workload"`
	Seed          int       `json:"seed"`
	Metric        string    `json:"metric"`
	Unit          string    `json:"unit"`
	Pairs         int       `json:"pairs"`
	Parent        sideStats `json:"parent"`
	Change        sideStats `json:"change"`
	ChangeOverPar float64   `json:"change_over_parent"`
	ChangeWins    int       `json:"change_wins"`
	Bound         float64   `json:"bound"`
	WithinBound   bool      `json:"within_bound"`
	GainRuleMet   bool      `json:"gain_rule_met"`
}

type sideRun struct {
	Metrics   map[string]float64 `json:"metrics"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
}

type pair struct {
	Workload string   `json:"workload"`
	Seed     int      `json:"seed"`
	Pair     int      `json:"pair"`
	First    string   `json:"first"`
	Parent   *sideRun `json:"parent"`
	Change   *sideRun `json:"change"`
}

type layer struct {
	Workload      string    `json:"workload"`
	Seed          int       `json:"seed"`
	Metric        string    `json:"metric"`
	Unit          string    `json:"unit"`
	ParentRuns    []float64 `json:"parent_runs"`
	ChangeRuns    []float64 `json:"change_runs"`
	ParentMedian  float64   `json:"parent_median"`
	ChangeMedian  float64   `json:"change_median"`
	ChangeOverPar float64   `json:"change_over_parent"`
}

type report struct {
	Summary []summary `json:"summary"`
	Pairs   []pair    `json:"pairs"`
	Trace   []layer   `json:"trace"`
}

// round4 rounds to four decimals, the precision of the records.
func round4(x float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'f', 4, 64), 64)
	return v
}

// compare builds the report from the runs by file key, and lists what
// fails: incorrect runs, medians out of bound and a claim that misses the
// gain rule.
func compare(bench benchmark, runs map[key]run, claim string) (report, []string) {
	var rep report
	var bad []string
	type group struct {
		workload string
		seed     int
	}
	paired := map[group][]int{}
	traced := map[group][]int{}
	for k := range runs {
		g := group{k.workload, k.seed}
		switch {
		case k.kind == 't' && k.side == "parent":
			traced[g] = append(traced[g], k.n)
		case k.kind == 'p' && k.side == "parent":
			paired[g] = append(paired[g], k.n)
		}
	}
	groups := func(m map[group][]int) []group {
		var gs []group
		for g := range m {
			gs = append(gs, g)
		}
		slices.SortFunc(gs, func(a, b group) int {
			if a.workload != b.workload {
				return strings.Compare(a.workload, b.workload)
			}
			return a.seed - b.seed
		})
		return gs
	}
	side := func(r run) *sideRun {
		s := &sideRun{Metrics: map[string]float64{}, Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed}
		for name, v := range r.Metrics {
			s.Metrics[name] = v.Value
		}
		return s
	}
	claimed := map[group]bool{}
	for _, g := range groups(paired) {
		ns := paired[g]
		slices.Sort(ns)
		var ps []pair
		for _, n := range ns {
			par, okP := runs[key{g.workload, g.seed, 'p', n, "parent"}]
			chg, okC := runs[key{g.workload, g.seed, 'p', n, "change"}]
			if !okP || !okC {
				bad = append(bad, fmt.Sprintf("%s seed %d pair %d: one side is missing", g.workload, g.seed, n))
				continue
			}
			for i, r := range [2]run{par, chg} {
				if !r.Correct || r.Failed > 0 {
					bad = append(bad, fmt.Sprintf("%s seed %d pair %d: the %s run is incorrect or failed %d of %d operations",
						g.workload, g.seed, n, [2]string{"parent", "change"}[i], r.Failed, r.Attempted))
				}
			}
			first := "parent"
			if n%2 == 0 {
				first = "change"
			}
			ps = append(ps, pair{Workload: g.workload, Seed: g.seed, Pair: n, First: first, Parent: side(par), Change: side(chg)})
		}
		rep.Pairs = append(rep.Pairs, ps...)
		for _, ms := range bench.EndToEnd {
			var pv, cv []float64
			wins := 0
			for _, p := range ps {
				a, okA := p.Parent.Metrics[ms.Name]
				b, okB := p.Change.Metrics[ms.Name]
				if !okA || !okB {
					continue
				}
				pv, cv = append(pv, a), append(cv, b)
				if (ms.Better == "higher" && b > a) || (ms.Better != "higher" && b < a) {
					wins++
				}
			}
			if len(pv) == 0 {
				continue
			}
			s := summary{Workload: g.workload, Seed: g.seed, Metric: ms.Name, Unit: ms.Unit, Pairs: len(pv), ChangeWins: wins, Bound: ms.Bound}
			s.Parent.Q1, s.Parent.Median, s.Parent.Q3 = quartiles(pv)
			s.Change.Q1, s.Change.Median, s.Change.Q3 = quartiles(cv)
			ratio := s.Change.Median / s.Parent.Median
			gap, iqr := s.Parent.Median-s.Change.Median, s.Parent.Q3-s.Parent.Q1
			if ms.Better == "higher" {
				s.WithinBound = ratio >= 1-ms.Bound
				gap = -gap
			} else {
				s.WithinBound = ratio <= 1+ms.Bound
			}
			s.GainRuleMet = 10*wins >= 9*len(pv) && gap > iqr
			s.ChangeOverPar = round4(ratio)
			for _, x := range []*float64{&s.Parent.Median, &s.Parent.Q1, &s.Parent.Q3, &s.Change.Median, &s.Change.Q1, &s.Change.Q3} {
				*x = round4(*x)
			}
			if !s.WithinBound {
				bad = append(bad, fmt.Sprintf("%s seed %d %s: change/parent %.4f is outside the bound %.2f", g.workload, g.seed, ms.Name, ratio, ms.Bound))
			}
			if g.workload+"/"+ms.Name == claim {
				claimed[g] = true
				if !s.GainRuleMet {
					bad = append(bad, fmt.Sprintf("%s seed %d %s: the claim misses the gain rule (%d/%d wins, gap %.4f, parent IQR %.4f)",
						g.workload, g.seed, ms.Name, wins, len(pv), gap, iqr))
				}
			}
			rep.Summary = append(rep.Summary, s)
		}
	}
	if claim != "" && len(claimed) == 0 {
		bad = append(bad, fmt.Sprintf("no paired runs measure the claim %s", claim))
	}
	for _, g := range groups(traced) {
		ns := traced[g]
		slices.Sort(ns)
		for _, ms := range bench.PerLayer {
			l := layer{Workload: g.workload, Seed: g.seed, Metric: ms.Name, Unit: ms.Unit}
			for _, n := range ns {
				par, okP := runs[key{g.workload, g.seed, 't', n, "parent"}]
				chg, okC := runs[key{g.workload, g.seed, 't', n, "change"}]
				a, okA := par.Metrics[ms.Name]
				b, okB := chg.Metrics[ms.Name]
				if okP && okC && okA && okB {
					l.ParentRuns, l.ChangeRuns = append(l.ParentRuns, a.Value), append(l.ChangeRuns, b.Value)
				}
			}
			if len(l.ParentRuns) == 0 {
				continue
			}
			_, pm, _ := quartiles(l.ParentRuns)
			_, cm, _ := quartiles(l.ChangeRuns)
			l.ParentMedian, l.ChangeMedian = round4(pm), round4(cm)
			if pm != 0 {
				l.ChangeOverPar = round4(cm / pm)
			}
			rep.Trace = append(rep.Trace, l)
		}
	}
	return rep, bad
}

func main() {
	benchPath := flag.String("benchmark", "BENCHMARK.json", "the benchmark description to read the metrics and bounds from")
	claim := flag.String("claim", "", "the claimed `workload/metric`, held to the gain rule at every seed it was run at")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchpair [-benchmark BENCHMARK.json] [-claim workload/metric] DIR")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fatal(err)
	}
	var bench benchmark
	if err := json.Unmarshal(raw, &bench); err != nil {
		fatal(fmt.Errorf("%s: %w", *benchPath, err))
	}
	dir := flag.Arg(0)
	entries, err := os.ReadDir(dir)
	if err != nil {
		fatal(err)
	}
	runs := map[key]run{}
	for _, e := range entries {
		k, ok := parseName(e.Name())
		if !ok {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			fatal(err)
		}
		r, err := readRun(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.Name(), err))
		}
		runs[k] = r
	}
	rep, bad := compare(bench, runs, *claim)
	out, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	for _, b := range bad {
		fmt.Fprintln(os.Stderr, "benchpair:", b)
	}
	if len(bad) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchpair:", err)
	os.Exit(2)
}
