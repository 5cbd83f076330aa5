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
//	protolat -faults -seed 7                      # fault-injection study
//	protolat -faults -rates 0,0.05 -stack rpc     # custom rates / RPC stack
//	protolat -stack tcpip -policy adaptive        # adaptive recovery timers
//	protolat -soak -seed 7                        # resumable soak across fault regimes
//	protolat -soak -checkpoint s.journal -soakstop 20   # stop early, journal kept
//	protolat -soak -checkpoint s.journal -resume        # continue from the journal
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
// Every mode that writes a document parses its flags into a study spec
// and runs it through the same registry entry the daemon uses, so a -json
// document is byte-identical to the daemon's for the same spec. Samples
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

// protolat runs one invocation and returns its exit status: 2 for a bad
// flag or spec (the same *SpecError the daemon answers with a 400), 1 for
// a failed run.
func protolat(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("protolat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table    = fs.Int("table", 0, "print one table (1..9); 0 = all")
		figure   = fs.Int("figure", 0, "print one figure (1 or 2); 0 = per -table setting")
		quality  = fs.String("quality", "quick", "measurement effort: quick or paper")
		stack    = fs.String("stack", "", "run a single configuration: tcpip or rpc")
		version  = fs.String("version", "ALL", "version for -stack: BAD STD OUT CLO PIN ALL")
		samples  = fs.Int("samples", 3, "samples for -stack runs")
		classify = fs.Bool("classifier", false, "charge packet-classifier cost on PIN/ALL")
		tput     = fs.Bool("throughput", false, "run the throughput check instead of tables")
		sens     = fs.String("sensitivity", "", "run a sensitivity sweep: cache, machine, or assoc")
		mconn    = fs.Bool("multiconn", false, "run the connection-time cloning experiment")
		faultrun = fs.Bool("faults", false, "run the fault-injection study (degraded-path latency per layout strategy)")
		soakrun  = fs.Bool("soak", false, "run the resumable soak: fault regimes x recovery policies x versions with tail-latency digests")
		policy   = fs.String("policy", "", "recovery policy for -stack runs: fixed (default) or adaptive")
		chkpoint = fs.String("checkpoint", "", "journal path for -soak; written after every chunk so a killed soak can -resume")
		resume   = fs.Bool("resume", false, "continue a -soak run from its -checkpoint journal instead of starting fresh")
		soakstop = fs.Int("soakstop", 0, "stop the soak at the first chunk boundary at or after this many units (0 = run to completion)")
		soakbat  = fs.Int("soakbatches", 0, "batches per soak cell for -soak (0 = the quality default)")
		soakrt   = fs.Int("soakroundtrips", 0, "roundtrips per soak batch for -soak (0 = the quality default)")
		seed     = fs.Uint64("seed", 1, "deterministic seed for -faults, -soak, -machines and -optimize; same seed = byte-identical report at any -parallel")
		rates    = fs.String("rates", "", "comma-separated fault rates for -faults (default 0,0.02,0.05,0.10) and -machines (default 0)")
		machsel  = fs.String("machines", "", "run the machine-matrix study on these models: \"all\", a comma-separated list of names, or \"list\" to print the matrix")
		profile  = fs.Bool("profile", false, "per-function mCPI attribution and i-cache conflict heatmap per version")
		lint     = fs.Bool("lint", false, "static layout lint: predicted i-cache conflicts per version from placed addresses, no simulation")
		optimiz  = fs.String("optimize", "", "search code placements with the static cost engine on these machine models (\"all\" or a comma-separated list); every candidate is equivalence-proved, winners confirmed by simulation")
		budget   = fs.Int("budget", 0, "annealing steps per machine for -optimize (0 = default)")
		cands    = fs.Int("candidates", 0, "searched placements confirmed by full simulation per machine for -optimize (0 = default)")
		top      = fs.Int("top", 10, "functions listed per version in -profile output")
		jsonPath = fs.String("json", "", "also write the run as a structured JSON document (manifest + data) to this path")
		parallel = fs.Int("parallel", 0, "worker pool for samples and table cells (0 = GOMAXPROCS, 1 = serial); output is identical at any setting")
		serveM   = fs.Bool("serve", false, "run the experiment daemon: accept specs over HTTP, memoize results in -store, recover after crashes")
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address for -serve (\":0\" picks a free port, announced on stderr) and daemon address for -submit")
		storeDir = fs.String("store", "protolat-store", "store directory for -serve: memoized documents, the journaled job queue, soak checkpoints")
		drainTO  = fs.Duration("drain-timeout", 30*time.Second, "how long -serve waits for in-flight jobs on SIGTERM before cancelling them (journals survive for restart)")
		submit   = fs.String("submit", "", "submit a spec file (\"-\" = stdin) to the daemon at -addr and print the resulting document")
		workers  = fs.Int("workers", 1, "concurrent job executors for -serve; each job gets an equal share of the -parallel pool, output identical at any count")
		storeMax = fs.Int64("store-max", 0, "store byte cap for -serve: evict least-recently-used memoized documents past this size (0 = uncapped; journaled-but-unserved jobs never evicted)")
		retries  = fs.Int("retries", 0, "retry -submit this many times on 429/503, honoring the daemon's Retry-After hint with capped exponential backoff (0 = fail fast)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	repro.SetParallelism(*parallel)

	spec := repro.Spec{
		Stack: *stack, Version: *version, Quality: *quality, Samples: *samples,
		Policy: *policy, Classifier: *classify, Table: *table, Seed: *seed,
		Rates: *rates, Top: *top, Budget: *budget, Candidates: *cands,
		SoakBatches: *soakbat, SoakRoundtrips: *soakrt,
	}
	// emit prints a rendered report.
	emit := func(text string, err error) error {
		if err == nil {
			_, err = fmt.Fprintln(stdout, text)
		}
		return err
	}
	run := func() error {
		switch {
		case *serveM:
			// PROTOLAT_FSFAULT injects a deterministic storage fault
			// layer beneath the daemon's store — the black-box seam the
			// fsfault smoke test uses to starve the real binary's disk
			// writes.
			fsys, err := repro.StorageFromEnv(os.Getenv("PROTOLAT_FSFAULT"))
			if err != nil {
				return err
			}
			srv, err := repro.NewServer(repro.ServeConfig{
				Addr:          *addr,
				StoreDir:      *storeDir,
				DrainTimeout:  *drainTO,
				GitDescribe:   gitDescribe(),
				Workers:       *workers,
				StoreMaxBytes: *storeMax,
				FS:            fsys,
			})
			if err != nil {
				return err
			}
			return srv.ListenAndServe()
		case *submit != "":
			return submitSpec(*addr, *submit, *retries, stdout, stderr)

		case *soakrun:
			spec.Kind = "soak"
		case *optimiz != "":
			spec.Kind, spec.Models = "optimize", *optimiz
		case *lint:
			spec.Kind = "lint"
		case *profile:
			spec.Kind = "profile"
		case *faultrun:
			spec.Kind = "faults"
		case *machsel == "list":
			for _, m := range repro.MachineMatrix() {
				fmt.Fprintf(stdout, "%-12s %s\n", m.Name, m.Title)
			}
			return nil
		case *machsel != "":
			spec.Kind, spec.Models = "machines", *machsel

		// The text-only modes write no document, but take the stack and
		// quality every kind takes, validated the same way.
		case *tput, *mconn, *sens != "":
			kind, q, err := repro.SharedParams(*stack, *quality)
			if err != nil {
				return err
			}
			switch {
			case *tput:
				return emit(repro.ThroughputTable(40, 1400))
			case *mconn:
				return emit(repro.MultiConnectionTable(32))
			case *sens == "cache":
				return emit(repro.Sensitivity(kind, repro.CacheSweep(), q))
			case *sens == "machine":
				return emit(repro.Sensitivity(kind, repro.MachineSweep(), q))
			case *sens == "assoc":
				return emit(repro.SensitivityVersions(kind, repro.BAD, repro.ALL, repro.AssocSweep(), q))
			}
			return &repro.SpecError{Field: "sensitivity", Msg: fmt.Sprintf("unknown sensitivity %q (want cache or machine or assoc)", *sens)}

		case *stack != "":
			spec.Kind = "run"
		case *figure != 0:
			spec.Kind, spec.Table = "figure", *figure
		case *table != 0:
			spec.Kind = "table"
		default:
			spec.Kind = "all"
		}

		out, err := repro.RunSpec(context.Background(), spec, repro.Env{
			Checkpoint: *chkpoint, Resume: *resume, StopAfter: *soakstop,
		})
		if err != nil {
			return err
		}
		if err := emit(out.Text()); err != nil || *jsonPath == "" {
			return err
		}
		if out.Doc == nil {
			// A partial soak exports nothing: the document describes a
			// completed schedule, and the journal already holds the rest.
			fmt.Fprintf(stderr, "soak stopped early; no JSON written (resume with -resume -checkpoint %s)\n", *chkpoint)
			return nil
		}
		out.Doc.Manifest.GitDescribe = gitDescribe()
		b, err := out.Doc.Marshal()
		if err != nil {
			return err
		}
		if err := repro.StorageDisk.WriteFile(*jsonPath, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", *jsonPath)
		return nil
	}
	if err := run(); err != nil {
		fmt.Fprintln(stderr, "protolat:", err)
		var se *repro.SpecError
		if errors.As(err, &se) {
			return 2
		}
		return 1
	}
	return 0
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
