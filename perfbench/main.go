// Command perfbench is the benchmark of the host program: the Go simulator,
// studies, layout optimizer and daemon that compute the paper's numbers. It
// runs one workload in-process through the layers' public functions, checks
// every output, prints a report of every metric with its unit and sample
// count, and ends with one JSON result line. With --trace 1 it also times
// each layer on its own, records spans around the workload's calls into the
// layers, and prints the per-layer figures and a reconciliation table. See
// README.md for the workloads, the metrics and how to read them.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// defaultSeed is the seed the committed reference digests were made at.
const defaultSeed = 1

// referencePath holds the committed digests of the checked outputs,
// relative to the repository root the benchmark runs from.
const referencePath = "perfbench/reference.txt"

// setupRuns is how many times a run sets its workload up (once in-process,
// the rest in fresh child processes, so every set-up starts cold); setup_s
// is their median.
const setupRuns = 5

// endToEnd names the metrics of an untraced run's result line: the ones
// every workload has. The report above it lists the rest.
var endToEnd = []string{"op_ms_p50", "alloc_mb_per_op", "rss_mb", "setup_s"}

// workload is one set of inputs the benchmark can run.
type workload struct {
	// heldOut is a seed kept out of tuning: a later speed claim must hold
	// on it too.
	heldOut uint64
	setup   func(seed uint64, refs references) (session, error)
}

var workloads = map[string]workload{
	"table4":   {heldOut: 101, setup: setupTable4},
	"matrix":   {heldOut: 102, setup: setupMatrix},
	"optimize": {heldOut: 103, setup: setupOptimize},
	"daemon":   {heldOut: 104, setup: setupDaemon},
}

// session is a workload that is set up and ready to measure.
type session interface {
	// measure runs the workload for about d. With a tracer it records
	// spans around the calls into the layers on every other operation.
	measure(d time.Duration, tr *tracer) (*outcome, error)
	close()
}

// outcome is what one measured window produced.
type outcome struct {
	metrics   []metric
	attempted int
	failed    int
	failures  []string // descriptions of the first few failures
	// opMS holds each operation's time; traced marks the ones that ran
	// with span recording on.
	opMS   []float64
	traced []bool
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// metric is one reported figure with the number of samples behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: table4, matrix, optimize or daemon")
	seed := fl.Uint64("seed", defaultSeed, "workload seed")
	seconds := fl.Int("seconds", 10, "measured seconds")
	traced := fl.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	setupOnly := fl.Bool("setup-only", false, "set the workload up, print the set-up seconds and exit")
	writeRef := fl.Bool("write-reference", false, "recompute "+referencePath+" and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	core.SetParallelism(runtime.NumCPU())
	if *writeRef {
		if err := writeReferences(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload table4|matrix|optimize|daemon, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	refs, err := loadReferences()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	sess, err := w.setup(*seed, refs)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	defer sess.close()
	setup := time.Since(start).Seconds()
	if *setupOnly {
		fmt.Fprintf(stdout, "%.9f\n", setup)
		return 0
	}

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d held_out_seed=%d seconds=%d trace=%d\n",
		*name, *seed, w.heldOut, *seconds, *traced)
	fmt.Fprintf(stdout, "# %s\n", provenance())
	d := time.Duration(*seconds) * time.Second
	var out *outcome
	var layers []metric
	if *traced == 1 {
		out, layers, err = runTraced(*name, *seed, d, sess, stdout)
	} else {
		out, err = sess.measure(d, nil)
		if err == nil {
			out.metrics = append(out.metrics, metric{"rss_mb", peakRSSMB(), "MB", 1})
			var setups []float64
			setups, err = childSetups(*name, *seed, setup)
			out.metrics = append(out.metrics, metric{"setup_s", median(setups), "s", len(setups)})
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out.metrics = append(out.metrics, metric{"fail_frac", float64(out.failed) / float64(max(out.attempted, 1)), "frac", out.attempted})
	report := out.metrics
	if *traced == 1 {
		report = append(report, layers...)
	}
	for _, m := range report {
		fmt.Fprintf(stdout, "metric %-32s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, f := range out.failures {
		fmt.Fprintln(stdout, "FAIL", f)
	}

	want := endToEnd
	if *traced == 1 {
		want = perLayerNames(layers)
	}
	line, err := resultLine(out, report, want)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if out.failed > 0 {
		return 1
	}
	return 0
}

// resultLine renders the final JSON object carrying exactly the named
// metrics.
func resultLine(out *outcome, report []metric, want []string) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	byName := map[string]value{}
	for _, m := range report {
		byName[m.name] = value{m.value, m.unit}
	}
	picked := map[string]value{}
	for _, n := range want {
		v, ok := byName[n]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return "", fmt.Errorf("metric %s is %v", n, v.Value)
		}
		picked[n] = v
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, picked})
	return string(b), err
}

// childSetups runs the workload's set-up in fresh processes and returns
// those times plus the in-process one.
func childSetups(name string, seed uint64, first float64) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	times := []float64{first}
	for i := 1; i < setupRuns; i++ {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q", b)
		}
		times = append(times, v)
	}
	return times, nil
}

// provenance identifies the host and the source a report came from.
func provenance() string {
	git := "none"
	if _, err := os.Stat(".git"); err == nil {
		if b, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
			git = strings.TrimSpace(string(b))
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d pool=%d go=%s git=%s source_sha256=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), core.Parallelism(), runtime.Version(), git, sourceDigest())
}

// sourceDigest hashes the module's Go sources and go.mod files, so a report
// names the code it measured even in a checkout without git metadata.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// references maps a checked output's name to the sha256 of its bytes.
type references map[string]string

func loadReferences() (references, error) {
	f, err := os.Open(referencePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	refs := references{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: bad line %q", referencePath, line)
		}
		refs[k] = strings.TrimSpace(v)
	}
	return refs, sc.Err()
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// expect returns the reference digest for key, or, when none is
// committed for it, the digest of fallback, the workload's own first
// output, so later outputs must at least reproduce it exactly.
func (r references) expect(key string, fallback []byte) string {
	if d, ok := r[key]; ok {
		return d
	}
	return digest(fallback)
}

// writeReferences recomputes every committed digest at the default seed
// and the held-out seeds.
func writeReferences() error {
	var buf bytes.Buffer
	buf.WriteString("# sha256 of each checked output; regenerate with\n#   bash perfbench/run.sh --write-reference\n")
	entries, err := referenceOutputs()
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&buf, "%s %s\n", k, digest(entries[k]))
	}
	return storage.Disk.WriteFile(referencePath, buf.Bytes(), 0o644)
}

// allocBytes reads the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
