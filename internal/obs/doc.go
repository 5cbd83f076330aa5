package obs

import (
	"encoding/json"
	"fmt"

	"repro/internal/arch"
)

// SchemaVersion identifies the JSON document layout. Bump it on any
// incompatible change so downstream consumers can detect drift.
const SchemaVersion = 1

// PhaseSplit decomposes one mean roundtrip into the §4.3 phases, in
// microseconds: time on the wire, time in the LANCE controllers, protocol
// processing on both hosts, and the residual spent waiting on protocol
// timers. The four parts sum to the roundtrip latency they describe.
type PhaseSplit struct {
	// WireUS is frame serialization time on the Ethernet.
	WireUS float64 `json:"wire_us"`
	// ControllerUS is the per-frame LANCE transmit-to-interrupt overhead.
	ControllerUS float64 `json:"controller_us"`
	// ProcessUS is CPU time (protocol processing plus interrupt handling)
	// on client and server together.
	ProcessUS float64 `json:"process_us"`
	// TimerWaitUS is the residual: virtual time in which nothing but a
	// pending protocol timer (retransmission backoff) advanced the clock.
	TimerWaitUS float64 `json:"timer_wait_us"`
}

// TotalUS sums the four phases.
func (p PhaseSplit) TotalUS() float64 {
	return p.WireUS + p.ControllerUS + p.ProcessUS + p.TimerWaitUS
}

// Add accumulates another split into p.
func (p *PhaseSplit) Add(o PhaseSplit) {
	p.WireUS += o.WireUS
	p.ControllerUS += o.ControllerUS
	p.ProcessUS += o.ProcessUS
	p.TimerWaitUS += o.TimerWaitUS
}

// Scale returns the split multiplied by f (used to convert totals to
// per-roundtrip means).
func (p PhaseSplit) Scale(f float64) PhaseSplit {
	return PhaseSplit{
		WireUS:       p.WireUS * f,
		ControllerUS: p.ControllerUS * f,
		ProcessUS:    p.ProcessUS * f,
		TimerWaitUS:  p.TimerWaitUS * f,
	}
}

// QualityDoc records the sample sizing a document was produced with.
type QualityDoc struct {
	Warmup   int `json:"warmup"`
	Measured int `json:"measured"`
	Samples  int `json:"samples"`
	// RPCSamples is the sample count of the document's RPC runs when a
	// cap holds them below Samples; absent when no run is capped.
	RPCSamples int `json:"rpc_samples,omitempty"`
}

// Manifest identifies a run well enough to reproduce it: the seed, the
// machine model, the sample sizing, and the semantic command line.
// Parallelism is recorded as "any" because output is byte-identical at
// every -parallel width — the worker count is an execution detail, not an
// input.
type Manifest struct {
	Schema      int             `json:"schema"`
	Paper       string          `json:"paper"`
	Command     string          `json:"command"`
	GitDescribe string          `json:"git_describe,omitempty"`
	Seed        uint64          `json:"seed"`
	Parallelism string          `json:"parallelism"`
	Quality     QualityDoc      `json:"quality"`
	Machine     arch.Machine    `json:"machine"`
	Versions    []string        `json:"versions,omitempty"`
	Features    map[string]bool `json:"features,omitempty"`
}

// Table is a rendered table's data: column names plus stringified cells,
// exactly the values the text renderer prints.
type Table struct {
	Name    string     `json:"name"`
	Title   string     `json:"title,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// Figure carries a text-rendered figure (ASCII plots, heatmaps).
type Figure struct {
	Name  string `json:"name"`
	Title string `json:"title,omitempty"`
	Text  string `json:"text"`
}

// CacheDoc is one cache level's statistics.
type CacheDoc struct {
	Accesses   uint64 `json:"accesses"`
	Misses     uint64 `json:"misses"`
	ReplMisses uint64 `json:"repl_misses"`
}

// String renders the statistics as the single-run report prints them.
func (c CacheDoc) String() string {
	return fmt.Sprintf("acc=%d miss=%d repl=%d", c.Accesses, c.Misses, c.ReplMisses)
}

// SampleDoc is one measured sample of one run.
type SampleDoc struct {
	TeUS             float64    `json:"te_us"`
	TpUS             float64    `json:"tp_us"`
	TraceLen         float64    `json:"trace_len"`
	CPI              float64    `json:"cpi"`
	ICPI             float64    `json:"icpi"`
	MCPI             float64    `json:"mcpi"`
	ICache           CacheDoc   `json:"icache"`
	DCache           CacheDoc   `json:"dcache"`
	BCache           CacheDoc   `json:"bcache"`
	UnusedICacheFrac float64    `json:"unused_icache_frac"`
	ClassifierMisses int        `json:"classifier_misses,omitempty"`
	Phases           PhaseSplit `json:"phases"`
	// L2Cache and VictimHits appear only on machine-matrix variants that
	// have the corresponding structure; both are omitted on the paper's
	// machine, so documents produced before the matrix existed are
	// byte-identical.
	L2Cache    *CacheDoc `json:"l2cache,omitempty"`
	VictimHits uint64    `json:"victim_hits,omitempty"`
}

// FuncCountDoc names one function's share of a conflict set.
type FuncCountDoc struct {
	Func       string `json:"func"`
	ReplMisses uint64 `json:"repl_misses"`
}

// SetConflictDoc is one i-cache set's conflict record: which functions
// evicted each other there and how often.
type SetConflictDoc struct {
	Set        int            `json:"set"`
	Misses     uint64         `json:"misses"`
	ReplMisses uint64         `json:"repl_misses"`
	Funcs      []FuncCountDoc `json:"funcs,omitempty"`
}

// ProfileDoc is the JSON form of a Profile: functions ranked by stall
// cycles plus the hottest conflict sets.
type ProfileDoc struct {
	TotalInstructions uint64           `json:"total_instructions"`
	TotalCycles       uint64           `json:"total_cycles"`
	TotalStallCycles  uint64           `json:"total_stall_cycles"`
	Funcs             []FuncStats      `json:"funcs"`
	SetConflicts      []SetConflictDoc `json:"set_conflicts,omitempty"`
}

// Doc converts the profile to its JSON form, keeping at most topConflicts
// conflict sets (0 keeps all with any replacement miss).
func (p *Profile) Doc(topConflicts int) *ProfileDoc {
	ti, tc, ts := p.Totals()
	d := &ProfileDoc{TotalInstructions: ti, TotalCycles: tc, TotalStallCycles: ts}
	for _, fs := range p.Ranked() {
		d.Funcs = append(d.Funcs, *fs)
	}
	for _, cs := range p.TopConflicts(topConflicts) {
		d.SetConflicts = append(d.SetConflicts, SetConflictDoc{
			Set:        cs.Set,
			Misses:     cs.Misses,
			ReplMisses: cs.ReplMisses,
			Funcs:      cs.rankedFuncs(),
		})
	}
	return d
}

// Run is one (stack, version) experiment in a document.
type Run struct {
	Stack            string      `json:"stack"`
	Version          string      `json:"version"`
	TeMeanUS         float64     `json:"te_mean_us"`
	TeStdUS          float64     `json:"te_std_us"`
	StaticPathInstrs int         `json:"static_path_instrs"`
	Samples          []SampleDoc `json:"samples"`
	Profile          *ProfileDoc `json:"profile,omitempty"`
}

// InjectedDoc tallies the fault injector's actions in a fault-study cell.
type InjectedDoc struct {
	Frames     int `json:"frames"`
	Dropped    int `json:"dropped"`
	Corrupted  int `json:"corrupted"`
	Duplicated int `json:"duplicated"`
	Reordered  int `json:"reordered"`
	Jittered   int `json:"jittered"`
}

// LinkDoc tallies the Ethernet link's own frame accounting in a
// fault-study cell; Delivered + Dropped == Frames + Duplicated always
// holds.
type LinkDoc struct {
	Frames     int `json:"frames"`
	Delivered  int `json:"delivered"`
	Dropped    int `json:"dropped"`
	Duplicated int `json:"duplicated"`
}

// RecoveryDoc tallies the protocol's recovery work in a fault-study cell.
type RecoveryDoc struct {
	Retransmits    int `json:"retransmits"`
	Aborts         int `json:"aborts"`
	ChecksumErrors int `json:"checksum_errors"`
	// FastRetransmits counts duplicate-ACK-triggered TCP retransmissions
	// (0 for the RPC stack).
	FastRetransmits int `json:"fast_retransmits,omitempty"`
}

// FaultCellDoc is one (version, rate) cell of the fault study, with the
// roundtrip population split into clean and degraded parts and each part's
// phase decomposition.
type FaultCellDoc struct {
	Version        string      `json:"version"`
	Rate           float64     `json:"rate"`
	CleanUS        float64     `json:"clean_us"`
	DegradedUS     float64     `json:"degraded_us"`
	CleanRT        int         `json:"clean_rt"`
	DegradedRT     int         `json:"degraded_rt"`
	CleanPhases    PhaseSplit  `json:"clean_phases"`
	DegradedPhases PhaseSplit  `json:"degraded_phases"`
	Injected       InjectedDoc `json:"injected"`
	Link           LinkDoc     `json:"link"`
	Recovery       RecoveryDoc `json:"recovery"`
}

// FaultStudyDoc is the structured form of the degraded-path study.
type FaultStudyDoc struct {
	Stack string         `json:"stack"`
	Cells []FaultCellDoc `json:"cells"`
}

// ServeStatsDoc is the daemon-health section of a document: the lifetime
// counters of a protolat -serve process (admission, memoization, coalescing,
// degradation) plus a point-in-time snapshot of its queue. Counters are
// monotonic over a process lifetime; the snapshot fields (QueueDepth,
// InFlight, Draining) describe the instant the document was assembled.
type ServeStatsDoc struct {
	// Accepted counts specs admitted to the queue (including recovered
	// ones); Completed and Failed partition the jobs that finished.
	Accepted  int `json:"accepted"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// Coalesced counts submissions that attached to an already queued or
	// running identical spec instead of executing again.
	Coalesced int `json:"coalesced"`
	// RejectedFull and RejectedDraining count submissions refused with
	// backpressure (queue full) and during graceful drain respectively.
	RejectedFull     int `json:"rejected_full"`
	RejectedDraining int `json:"rejected_draining"`
	// StoreHits counts requests served from the memoized result store
	// without executing anything; StoreMisses counts fingerprints that had
	// to be computed.
	StoreHits   int `json:"store_hits"`
	StoreMisses int `json:"store_misses"`
	// Recovered counts jobs replayed from the journaled job queue after a
	// crash; DegradedPersists counts results served successfully whose
	// store write failed (computed but not memoized).
	Recovered        int `json:"recovered"`
	DegradedPersists int `json:"degraded_persists"`
	// Evicted and EvictedBytes count memoized documents removed (and the
	// bytes they freed) by the LRU store-size cap since the daemon
	// started.
	Evicted      int64 `json:"evicted,omitempty"`
	EvictedBytes int64 `json:"evicted_bytes,omitempty"`
	// Queue snapshot at document-assembly time.
	QueueDepth int  `json:"queue_depth"`
	QueueCap   int  `json:"queue_cap"`
	InFlight   int  `json:"in_flight"`
	Draining   bool `json:"draining"`
	// Workers is the configured concurrent job-executor count.
	Workers int `json:"workers,omitempty"`
	// StoreBytes is the resident memoized-document footprint at
	// document-assembly time; StoreMaxBytes the configured cap (0 =
	// uncapped).
	StoreBytes    int64 `json:"store_bytes,omitempty"`
	StoreMaxBytes int64 `json:"store_max_bytes,omitempty"`
}

// LintSetDoc is one cache set the static layout lint predicts will thrash
// on the latency path.
type LintSetDoc struct {
	Set        int      `json:"set"`
	Blocks     int      `json:"blocks"`
	ReplMisses int      `json:"repl_misses"`
	Funcs      []string `json:"funcs,omitempty"`
}

// LintCellDoc is one version's static lint verdict: the path's i-cache
// footprint, the predicted steady-state replacement misses, and the layout
// hygiene counters, all computed from placed addresses without running the
// simulator.
type LintCellDoc struct {
	Version             string       `json:"version"`
	PathBlocks          int          `json:"path_blocks"`
	PredictedRepl       int          `json:"predicted_repl"`
	PartitionViolations int          `json:"partition_violations"`
	HotColdInterleave   int          `json:"hot_cold_interleave"`
	Conflicts           []LintSetDoc `json:"conflicts,omitempty"`
}

// VerifyDoc is the static-verification section of a document: per-version
// layout-lint predictions (protolat -lint).
type VerifyDoc struct {
	Stack    string        `json:"stack"`
	Strategy string        `json:"strategy"`
	Cells    []LintCellDoc `json:"cells"`
}

// MachineModelDoc describes one machine model of the matrix: its identity
// plus the full parameter set, so a document is self-contained.
type MachineModelDoc struct {
	Name       string       `json:"name"`
	Title      string       `json:"title"`
	Provenance string       `json:"provenance"`
	Machine    arch.Machine `json:"machine"`
}

// MachineCellDoc is one (model, version, rate) measurement of the
// machine-matrix study.
type MachineCellDoc struct {
	Model             string  `json:"model"`
	Version           string  `json:"version"`
	Rate              float64 `json:"rate,omitempty"`
	TeUS              float64 `json:"te_us"`
	TpUS              float64 `json:"tp_us"`
	MCPI              float64 `json:"mcpi"`
	ICacheMisses      uint64  `json:"icache_misses"`
	ICacheRepl        uint64  `json:"icache_repl"`
	L2Misses          uint64  `json:"l2_misses,omitempty"`
	VictimHits        uint64  `json:"victim_hits,omitempty"`
	LintPredictedRepl int     `json:"lint_predicted_repl"`
}

// MachinesDoc is the machine-matrix section of a document: the models swept
// and every (model, version, rate) cell (protolat -machines).
type MachinesDoc struct {
	Stack    string            `json:"stack"`
	Strategy string            `json:"strategy"`
	Seed     uint64            `json:"seed"`
	Models   []MachineModelDoc `json:"models"`
	Cells    []MachineCellDoc  `json:"cells"`
}

// OptimizeCandidateDoc is one searched placement that passed the
// well-formedness and move-only equivalence proofs and was confirmed by
// full simulation, with its predicted and measured replacement misses side
// by side.
type OptimizeCandidateDoc struct {
	Rank          int      `json:"rank"`
	Order         []string `json:"order"`
	PadBlocks     []int    `json:"pad_blocks,omitempty"`
	PredictedCost float64  `json:"predicted_cost"`
	PredictedRepl int      `json:"predicted_repl"`
	MeasuredRepl  uint64   `json:"measured_repl"`
	MeasuredTpUS  float64  `json:"measured_tp_us"`
	HotBytes      uint64   `json:"hot_bytes"`
}

// OptimizeMachineDoc is one machine's layout-search outcome: the hand
// bipartite baseline, the search's proof-gate counters, and the confirmed
// candidates.
type OptimizeMachineDoc struct {
	Model               string                 `json:"model"`
	HandTpUS            float64                `json:"hand_tp_us"`
	HandMeasuredRepl    uint64                 `json:"hand_measured_repl"`
	HandPredictedRepl   int                    `json:"hand_predicted_repl"`
	HandPredictedCost   float64                `json:"hand_predicted_cost"`
	Examined            int                    `json:"examined"`
	RejectedWellFormed  int                    `json:"rejected_well_formed"`
	RejectedEquivalence int                    `json:"rejected_equivalence"`
	Candidates          []OptimizeCandidateDoc `json:"candidates"`
}

// OptimizeDoc is the layout-search section of a document (protolat
// -optimize): one entry per machine searched.
type OptimizeDoc struct {
	Stack  string               `json:"stack"`
	Seed   uint64               `json:"seed"`
	Budget int                  `json:"budget"`
	TopK   int                  `json:"top_k"`
	Cells  []OptimizeMachineDoc `json:"cells"`
}

// Document is the root of a protolat JSON export: the manifest plus
// whatever the selected mode produced.
type Document struct {
	Manifest   Manifest       `json:"manifest"`
	Tables     []Table        `json:"tables,omitempty"`
	Figures    []Figure       `json:"figures,omitempty"`
	Runs       []Run          `json:"runs,omitempty"`
	FaultStudy *FaultStudyDoc `json:"fault_study,omitempty"`
	Verify     *VerifyDoc     `json:"verify,omitempty"`
	Serve      *ServeStatsDoc `json:"serve,omitempty"`
	Machines   *MachinesDoc   `json:"machines,omitempty"`
	Optimize   *OptimizeDoc   `json:"optimize,omitempty"`
}

// Marshal renders the document as indented JSON with a trailing newline.
// Output is deterministic: maps marshal with sorted keys and all slices
// are built in deterministic order, so identical inputs yield identical
// bytes regardless of how many workers produced them.
func (d *Document) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
