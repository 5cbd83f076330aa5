// Command protolat regenerates the tables and figures of "Analysis of
// Techniques to Improve Protocol Processing Latency" from the simulated
// apparatus in this repository.
//
// Usage:
//
//	protolat                     # everything, quick quality
//	protolat -quality paper      # everything, paper-scale sampling
//	protolat -table 4            # one table (1..9; 4 and 5 print together)
//	protolat -figure 2           # one figure (1 or 2)
//	protolat -stack rpc -version ALL -samples 5   # one configuration
//	protolat -parallel 8 -quality paper           # 8 workers; same output
//	protolat -throughput                          # §4.1 throughput check
//	protolat -multiconn                           # §3.2 connection-time cloning
//	protolat -sensitivity cache                   # i-cache size sweep
//	protolat -faults -seed 7                      # fault-injection study
//	protolat -faults -rates 0,0.05 -stack rpc     # custom rates / RPC stack
//	protolat -profile -top 8                      # per-function mCPI attribution
//	protolat -lint                                # static layout lint, no simulation
//	protolat -optimize dec3000 -seed 1            # search placements vs the hand ALL layout
//	protolat -optimize all -budget 300 -candidates 3   # whole matrix, custom search shape
//	protolat -machines list                       # print the machine-model matrix
//	protolat -machines all                        # layout x machine sweep, every model
//	protolat -machines dec3000,modern -stack rpc  # a subset, on the RPC stack
//	protolat -table 7 -json out.json              # structured export + manifest
//	protolat -serve -addr :8080 -store /var/lib/protolat   # experiment daemon
//	protolat -submit spec.json -addr localhost:8080        # submit a spec to it
//
// See docs/CLI.md for the complete flag reference with worked examples.
//
// Every mode but -serve, -submit and -machines list parses its flags into
// a study spec and runs it through the same registry entry the daemon
// uses, so a -json document is byte-identical to the daemon's for the
// same spec. Samples
// and table cells are independent simulations, so they run on a bounded
// worker pool (-parallel, default GOMAXPROCS). Results assemble in index
// order and are bit-for-bit identical to a serial run; -json output is
// likewise byte-identical at any -parallel width.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro"
)

func main() { os.Exit(protolat(os.Args[1:], os.Stdout, os.Stderr)) }

// options are protolat's parsed flags. Study parameters land in spec and
// daemon settings in daemon; the flags that select a kind are kept apart
// for studySpec.
type options struct {
	spec                            repro.Spec
	daemon                          repro.ServeConfig
	figure, parallel, retries       int
	throughput, multiconn, faults   bool
	profile, lint, serve            bool
	sensitivity, machines, optimize string
	jsonPath, submit                string
}

// parseFlags parses a protolat command line; flag errors and usage go to
// stderr.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	var o options
	s := &o.spec
	fs := flag.NewFlagSet("protolat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&s.Table, "table", 0, "print one table (1..9); 0 = all")
	fs.IntVar(&o.figure, "figure", 0, "print one figure (1 or 2); 0 = per -table setting")
	fs.StringVar(&s.Quality, "quality", "quick", "measurement effort: quick or paper")
	fs.StringVar(&s.Stack, "stack", "", "run a single configuration: tcpip or rpc")
	fs.StringVar(&s.Version, "version", "ALL", "version for -stack: BAD STD OUT CLO PIN ALL")
	fs.IntVar(&s.Samples, "samples", 3, "samples for -stack runs")
	fs.BoolVar(&s.Classifier, "classifier", false, "charge packet-classifier cost on PIN/ALL")
	fs.BoolVar(&o.throughput, "throughput", false, "run the throughput check instead of tables")
	fs.StringVar(&o.sensitivity, "sensitivity", "", "run a sensitivity sweep: cache, machine, or assoc")
	fs.BoolVar(&o.multiconn, "multiconn", false, "run the connection-time cloning experiment")
	fs.BoolVar(&o.faults, "faults", false, "run the fault-injection study (degraded-path latency per layout strategy)")
	fs.Uint64Var(&s.Seed, "seed", 1, "deterministic seed for -faults, -machines and -optimize; same seed = byte-identical report at any -parallel")
	fs.StringVar(&s.Rates, "rates", "", "comma-separated fault rates for -faults (default 0,0.02,0.05,0.10) and -machines (default 0)")
	fs.StringVar(&o.machines, "machines", "", "run the machine-matrix study on these models: \"all\", a comma-separated list of names, or \"list\" to print the matrix")
	fs.BoolVar(&o.profile, "profile", false, "per-function mCPI attribution and i-cache conflict heatmap per version")
	fs.BoolVar(&o.lint, "lint", false, "static layout lint: predicted i-cache conflicts per version from placed addresses, no simulation")
	fs.StringVar(&o.optimize, "optimize", "", "search code placements with the static cost engine on these machine models (\"all\" or a comma-separated list); every candidate is equivalence-proved, winners confirmed by simulation")
	fs.IntVar(&s.Budget, "budget", 0, "annealing steps per machine for -optimize (0 = default)")
	fs.IntVar(&s.Candidates, "candidates", 0, "searched placements confirmed by full simulation per machine for -optimize (0 = default)")
	fs.IntVar(&s.Top, "top", 10, "functions listed per version in -profile output")
	fs.StringVar(&o.jsonPath, "json", "", "also write the run as a structured JSON document (manifest + data) to this path")
	fs.IntVar(&o.parallel, "parallel", 0, "worker pool for samples and table cells (0 = GOMAXPROCS, 1 = serial); output is identical at any setting")
	fs.BoolVar(&o.serve, "serve", false, "run the experiment daemon: accept specs over HTTP, memoize results in -store, recover after crashes")
	fs.StringVar(&o.daemon.Addr, "addr", "127.0.0.1:8080", "listen address for -serve (\":0\" picks a free port, announced on stderr) and daemon address for -submit")
	fs.StringVar(&o.daemon.StoreDir, "store", "protolat-store", "store directory for -serve: memoized documents and the journaled job queue")
	fs.DurationVar(&o.daemon.DrainTimeout, "drain-timeout", 30*time.Second, "how long -serve waits for in-flight jobs on SIGTERM before cancelling them (journals survive for restart)")
	fs.StringVar(&o.submit, "submit", "", "submit a spec file (\"-\" = stdin) to the daemon at -addr and print the resulting document")
	fs.IntVar(&o.daemon.Workers, "workers", 1, "concurrent job executors for -serve; each job gets an equal share of the -parallel pool, output identical at any count")
	fs.Int64Var(&o.daemon.StoreMaxBytes, "store-max", 0, "store byte cap for -serve: evict least-recently-used memoized documents past this size (0 = uncapped; journaled-but-unserved jobs never evicted)")
	fs.IntVar(&o.retries, "retries", 0, "retry -submit this many times on 429/503, honoring the daemon's Retry-After hint with capped exponential backoff (0 = fail fast)")
	return &o, fs.Parse(args)
}

// studySpec is the study the flags select: the first kind flag set, in
// this order, picks the kind. "-machines list" comes back as a machines
// spec with Models "list", which prints the matrix instead of a study.
func (o *options) studySpec() repro.Spec {
	s := o.spec
	switch {
	case o.optimize != "":
		s.Kind, s.Models = "optimize", o.optimize
	case o.lint:
		s.Kind = "lint"
	case o.profile:
		s.Kind = "profile"
	case o.faults:
		s.Kind = "faults"
	case o.machines != "":
		s.Kind, s.Models = "machines", o.machines
	case o.throughput:
		s.Kind = "throughput"
	case o.multiconn:
		s.Kind = "multiconn"
	case o.sensitivity != "":
		s.Kind, s.Sweep = "sensitivity", o.sensitivity
	case s.Stack != "":
		s.Kind = "run"
	case o.figure != 0:
		s.Kind, s.Table = "figure", o.figure
	case s.Table != 0:
		s.Kind = "table"
	default:
		s.Kind = "all"
	}
	return s
}

// protolat runs one invocation and returns its exit status: 2 for a bad
// flag or spec (the same *SpecError the daemon answers with a 400), 1 for
// a failed run.
func protolat(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	repro.SetParallelism(o.parallel)
	if err := o.run(stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "protolat:", err)
		var se *repro.SpecError
		if errors.As(err, &se) {
			return 2
		}
		return 1
	}
	return 0
}

// run executes the parsed invocation: the daemon, a submission, the
// machine list, or a study through the registry.
func (o *options) run(stdout, stderr io.Writer) error {
	switch {
	case o.serve:
		// PROTOLAT_FSFAULT injects a deterministic storage fault layer
		// beneath the daemon's store — the black-box seam the fsfault
		// smoke test uses to starve the real binary's disk writes.
		fsys, err := repro.StorageFromEnv(os.Getenv("PROTOLAT_FSFAULT"))
		if err != nil {
			return err
		}
		cfg := o.daemon
		cfg.GitDescribe, cfg.FS = gitDescribe(), fsys
		srv, err := repro.NewServer(cfg)
		if err != nil {
			return err
		}
		return srv.ListenAndServe()
	case o.submit != "":
		return submitSpec(o.daemon.Addr, o.submit, o.retries, stdout, stderr)
	}
	spec := o.studySpec()
	if spec.Kind == "machines" && spec.Models == "list" {
		for _, m := range repro.MachineMatrix() {
			fmt.Fprintf(stdout, "%-12s %s\n", m.Name, m.Title)
		}
		return nil
	}
	doc, err := repro.RunSpec(context.Background(), spec)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(stdout, repro.Text(spec.Kind, doc)); err != nil || o.jsonPath == "" {
		return err
	}
	doc.Manifest.GitDescribe = gitDescribe()
	b, err := doc.Marshal()
	if err != nil {
		return err
	}
	if err := repro.StorageDisk.WriteFile(o.jsonPath, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", o.jsonPath)
	return nil
}

// gitDescribe identifies the checkout for the manifest; empty (and omitted
// from the document) when git or the repository is unavailable.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// submitSpec posts a spec file to the daemon at addr and prints the
// resulting document to stdout; cache/fingerprint metadata goes to stderr.
// retries > 0 retries 429/503 rejections with the daemon's Retry-After hint
// and capped exponential backoff.
func submitSpec(addr, path string, retries int, stdout, stderr io.Writer) error {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	res, err := repro.SubmitSpec(addr, data, repro.SubmitOptions{Retries: retries})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "cache: %s  fingerprint: %s\n", res.Cache, res.Fingerprint)
	_, err = stdout.Write(res.Body)
	return err
}
