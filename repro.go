// Package repro is the public API of this reproduction of Mosberger,
// Peterson, Bridges and O'Malley, "Analysis of Techniques to Improve
// Protocol Processing Latency" (University of Arizona TR 96-03 / SIGCOMM
// 1996).
//
// The library simulates the paper's entire experimental apparatus: a DEC
// 3000/600-class machine (dual-issue Alpha 21064 with direct-mapped split
// first-level caches, a write-merging write buffer, and a 2 MB board
// cache), an x-kernel protocol framework with functional TCP/IP and
// Sprite-RPC protocol stacks running over a simulated LANCE Ethernet, and
// the paper's three latency-reducing code transformations — outlining,
// cloning (with bipartite, linear, micro-positioned and adversarial
// layouts), and path-inlining.
//
// One experiment:
//
//	res, err := repro.Run(repro.DefaultConfig(repro.StackTCPIP, repro.ALL))
//	fmt.Printf("roundtrip: %.1f us, mCPI %.2f\n", res.TeMeanUS, res.First().MCPI)
//
// Every table, figure and study of the evaluation, as the protolat CLI and
// the experiment daemon compute it — a document, whose text report is a
// function of the document alone:
//
//	doc, err := repro.RunSpec(ctx, repro.Spec{Kind: "table", Table: 4})
//	fmt.Println(repro.Text("table", doc))
//
// The building blocks (machine simulator, object-code models, layout
// engine, protocol implementations) live under internal/; this package
// re-exports what a downstream user drives.
package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/storage"
)

// Version is one of the paper's six measured configurations.
type Version = core.Version

// The six configurations of §4.2.
const (
	// STD includes the §2 improvements but none of the §3 techniques.
	STD = core.STD
	// OUT adds outlining.
	OUT = core.OUT
	// CLO adds cloning with the bipartite layout.
	CLO = core.CLO
	// BAD uses cloning to construct a pessimal layout.
	BAD = core.BAD
	// PIN is OUT plus path-inlining.
	PIN = core.PIN
	// ALL combines every technique.
	ALL = core.ALL
)

// Versions lists all configurations in Table 4 order.
func Versions() []Version { return core.Versions() }

// StackKind selects the protocol stack under test.
type StackKind = core.StackKind

// The two test stacks of Figure 1.
const (
	StackTCPIP = core.StackTCPIP
	StackRPC   = core.StackRPC
)

// Config describes one experiment; Result carries its measurements.
type (
	Config  = core.Config
	Result  = core.Result
	Sample  = core.Sample
	Quality = core.Quality
)

// Measurement effort presets.
var (
	Quick        = core.Quick
	PaperQuality = core.PaperQuality
)

// DefaultConfig returns the paper's measurement shape for a stack/version.
func DefaultConfig(kind StackKind, v Version) Config { return core.DefaultConfig(kind, v) }

// Run executes one experiment. Samples fan out over a bounded worker pool
// (see SetParallelism) and assemble in index order, so results are
// bit-for-bit identical to serial execution.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// SetParallelism bounds the worker pool every study uses; n <= 0 restores
// the default (GOMAXPROCS). Every sample and table cell is an independent
// simulation sharing only immutable linked programs, so the setting
// changes wall-clock time, never results.
func SetParallelism(n int) { core.SetParallelism(n) }

// The study registry (see internal/serve): one entry per kind of
// experiment, shared by the protolat CLI and the daemon.
type (
	// Spec is one experiment request, the POST /v1/experiments body.
	Spec = serve.Spec
	// SpecError reports an invalid spec field.
	SpecError = serve.SpecError
)

// RunSpec computes the document of the study a spec describes; an invalid
// spec fails with a *SpecError before any work starts.
func RunSpec(ctx context.Context, spec Spec) (*obs.Document, error) {
	return serve.Run(ctx, spec, 0)
}

// Text renders a registered kind's text report from its document.
func Text(kind string, doc *obs.Document) string { return serve.Text(kind, doc) }

// Kinds lists the registered study kinds.
func Kinds() []string { return serve.Kinds() }

// MachineMatrix returns the curated machine-model matrix (see
// docs/MACHINES.md) in canonical report order.
func MachineMatrix() []machines.Model { return machines.Matrix() }

// Experiment daemon (see internal/serve): `protolat -serve` runs the
// registry behind a persistent HTTP/JSON service with a bounded journaled
// job queue, fingerprint-keyed result memoization, request coalescing,
// per-job watchdogs, graceful drain, and crash recovery.
type (
	// ServeConfig shapes a daemon (address, store directory, queue bound,
	// drain timeout).
	ServeConfig = serve.Config
	// SubmitOptions shapes a client-side submission (`protolat -submit`).
	SubmitOptions = serve.SubmitOptions
)

// NewServer opens the daemon's store, replays the journaled job queue
// (crash recovery), and starts its workers.
func NewServer(cfg ServeConfig) (*serve.Server, error) { return serve.New(cfg) }

// SubmitSpec posts a spec to a daemon's /v1/experiments endpoint,
// retrying 429/503 rejections per opts with capped deterministic
// exponential backoff.
func SubmitSpec(addr string, spec []byte, opts SubmitOptions) (*serve.SubmitResult, error) {
	return serve.Submit(addr, spec, opts)
}

// StorageFromEnv builds the filesystem a PROTOLAT_FSFAULT fault spec
// ("enospc=<glob>,crash-at=<n>,seed=<n>,...") describes, for black-box
// storage-fault testing of the real binary; an empty spec returns the
// real disk.
func StorageFromEnv(spec string) (storage.FS, error) { return storage.FromEnv(spec) }

// StorageDisk is the real-disk filesystem. Durable writes outside
// internal/storage go through a storage.FS (the fsseam protovet analyzer
// enforces it), so command-line code writes artifacts through it.
var StorageDisk = storage.Disk
