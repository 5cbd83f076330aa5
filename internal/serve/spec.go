// Package serve holds the study registry and the protolat experiment
// daemon built on it.
//
// The registry (registry.go) maps each experiment kind — single runs,
// tables, figures, the full report, fault studies, lints,
// profiles, machine studies, layout searches, the throughput check, the
// connection-cloning table and the sensitivity sweeps — to one entry that
// declares its parameters, computes its document and derives the
// manifest command. The protolat CLI and the daemon are both thin shells
// over Run, so a document is byte-identical whichever one computed it.
//
// The daemon is a persistent HTTP/JSON service that accepts experiment
// specs, validates and fingerprints them,
// schedules them on the shared worker pool through a bounded journaled job
// queue, and memoizes completed documents in a crash-safe on-disk store
// built on internal/storage's envelope (tmp+rename+CRC-32).
//
// Robustness properties, in the order a request meets them:
//
//   - Admission control: the job queue is bounded; a full queue rejects
//     with 429 and a deterministic backoff hint, a draining daemon with
//     503. A memoized result is served even while draining or full — the
//     cheapest path stays open the longest.
//   - Coalescing: concurrent submissions of an identical spec (same
//     fingerprint) attach to the one queued execution instead of running
//     it again.
//   - Crash safety: admitted jobs are journaled before execution and
//     results are persisted before the response is sent, both atomically.
//     After a kill -9 the daemon replays the journaled queue on startup
//     and serves re-requests byte-identically from the store.
//   - Bounds: every sample runs under the event-budget watchdog (422 on
//     exhaustion). A running job is stopped one way only: cooperative
//     cancellation when the daemon drains past its timeout (503).
//   - Graceful degradation: a result whose store write fails is still
//     served (flagged degraded); a tampered stored document surfaces as
//     a typed 500 naming the corruption instead of a wrong answer.
//
// Everything the daemon computes inherits the library's determinism:
// identical specs on an identical checkout produce byte-identical
// documents, which is what makes fingerprint-keyed memoization sound.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/optimize"
)

// Spec is one experiment request: the CLI parses its flags into one, the
// daemon decodes one from a request body. Kind selects the registry
// entry; the remaining fields parameterize it and are canonicalized by
// Normalized so that semantically identical requests fingerprint — and
// therefore memoize and coalesce — identically.
type Spec struct {
	// Kind is the registry entry: "run", "table", "figure", "all",
	// "faults", "lint", "profile", "machines", "optimize", "throughput",
	// "multiconn", or "sensitivity".
	Kind string `json:"kind"`
	// Stack selects the protocol stack: "tcpip" (default) or "rpc". A
	// kind that does not read it ("table", "figure", "all",
	// "throughput", "multiconn") canonicalizes a valid stack to the
	// default.
	Stack string `json:"stack,omitempty"`
	// Version is the layout configuration for "run" (default "ALL").
	Version string `json:"version,omitempty"`
	// Quality is the measurement effort: "quick" (default) or "paper".
	// A kind that does not read it ("figure", "lint", "throughput",
	// "multiconn") canonicalizes a valid quality to the default.
	Quality string `json:"quality,omitempty"`
	// Samples is the sample count for "run" (default 3).
	Samples int `json:"samples,omitempty"`
	// Classifier charges the packet-classifier cost on the PIN/ALL
	// receive path of a "run".
	Classifier bool `json:"classifier,omitempty"`
	// Table selects the table (1..9) for "table" and the figure (1..2)
	// for "figure".
	Table int `json:"table,omitempty"`
	// Seed drives the fault plans of "faults" and "machines" and
	// the search of "optimize" (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Rates is the comma-separated fault-rate list for "faults" and
	// "machines" (empty keeps the study default).
	Rates string `json:"rates,omitempty"`
	// Top is the per-version function count for "profile" (default 10).
	Top int `json:"top,omitempty"`
	// Models is the machine-model selection for "machines" and
	// "optimize": "all" (default) or a comma-separated list of matrix
	// names. The machines land in the canonical spec, so two selections
	// that sweep different hardware fingerprint — and memoize —
	// separately.
	Models string `json:"models,omitempty"`
	// Budget is the annealing steps per machine for "optimize" (0 keeps
	// the search default).
	Budget int `json:"budget,omitempty"`
	// Candidates is the number of searched placements "optimize" confirms
	// by full simulation per machine (0 keeps the search default).
	Candidates int `json:"candidates,omitempty"`
	// Sweep names the "sensitivity" sweep: "machine" (default), "cache"
	// or "assoc".
	Sweep string `json:"sweep,omitempty"`
}

// decodeSpec reads one JSON spec, refusing fields Spec does not have: a
// request or journaled job naming one asks for something this binary
// cannot compute, and dropping the field would silently run another
// study.
func decodeSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// SpecError reports an invalid spec field; the daemon maps it to a 400
// and the CLI to exit status 2.
type SpecError struct {
	Field string
	Msg   string
}

// Error renders the failure with its field.
func (e *SpecError) Error() string { return fmt.Sprintf("spec field %q: %s", e.Field, e.Msg) }

// A param is one parameter an entry can declare. Its name is the CLI flag
// that sets it where one exists.
type param struct {
	// keep copies the parameter from src to dst in canonical form, its
	// default filled.
	keep func(dst *Spec, src Spec)
	// check validates the canonical value; nil accepts every value.
	check func(Spec) error
	// flag renders the value as the command line sets it ("-seed 7");
	// nil for a parameter only a spec can set.
	flag func(Spec) string
}

// params are all parameters any entry declares. Stack and quality are
// kept for every kind; the rest only where an entry names them.
var params = map[string]param{
	"stack": {
		keep:  func(d *Spec, s Spec) { d.Stack = orDefault(lower(s.Stack), "tcpip") },
		check: func(s Spec) error { return oneOf("stack", s.Stack, "tcpip", "rpc") },
		flag:  func(s Spec) string { return "-stack " + s.Stack },
	},
	"quality": {
		keep:  func(d *Spec, s Spec) { d.Quality = orDefault(lower(s.Quality), "quick") },
		check: func(s Spec) error { return oneOf("quality", s.Quality, "quick", "paper") },
		flag:  func(s Spec) string { return "-quality " + s.Quality },
	},
	"version": {
		keep: func(d *Spec, s Spec) {
			d.Version = orDefault(strings.TrimSpace(s.Version), "ALL")
			if v, err := d.version(); err == nil {
				d.Version = v.String()
			}
		},
		check: func(s Spec) error { _, err := s.version(); return err },
		flag:  func(s Spec) string { return "-version " + s.Version },
	},
	"samples": {
		keep: func(d *Spec, s Spec) { d.Samples = positiveOr(s.Samples, 3) },
		flag: func(s Spec) string { return "-samples " + strconv.Itoa(s.Samples) },
	},
	"classifier": {
		keep: func(d *Spec, s Spec) { d.Classifier = s.Classifier },
		flag: func(s Spec) string {
			if s.Classifier {
				return "-classifier"
			}
			return ""
		},
	},
	"table": {
		keep:  func(d *Spec, s Spec) { d.Table = s.Table },
		check: func(s Spec) error { return inRange("table", s.Table, 9) },
		flag:  func(s Spec) string { return "-table " + strconv.Itoa(s.Table) },
	},
	// figure shares the Table field: a figure request names its number
	// there, so a spec needs no field of its own for it.
	"figure": {
		keep:  func(d *Spec, s Spec) { d.Table = s.Table },
		check: func(s Spec) error { return inRange("figure", s.Table, 2) },
		flag:  func(s Spec) string { return "-figure " + strconv.Itoa(s.Table) },
	},
	"seed": {
		keep: func(d *Spec, s Spec) { d.Seed = max(s.Seed, 1) },
		flag: func(s Spec) string { return "-seed " + strconv.FormatUint(s.Seed, 10) },
	},
	"rates": {
		keep:  func(d *Spec, s Spec) { d.Rates = strings.ReplaceAll(s.Rates, " ", "") },
		check: func(s Spec) error { _, err := parseRates(s.Rates); return fieldErr("rates", err) },
		flag:  func(s Spec) string { return "-rates " + s.Rates },
	},
	"top": {
		keep: func(d *Spec, s Spec) { d.Top = positiveOr(s.Top, 10) },
		flag: func(s Spec) string { return "-top " + strconv.Itoa(s.Top) },
	},
	// sweep is set on the command line by the flag that selects the
	// kind, -sensitivity.
	"sweep": {
		keep:  func(d *Spec, s Spec) { d.Sweep = orDefault(lower(s.Sweep), "machine") },
		check: func(s Spec) error { return oneOf("sweep", s.Sweep, core.SweepNames()...) },
		flag:  func(s Spec) string { return "-sensitivity " + s.Sweep },
	},
	// models is set on the command line by the flag that selects the
	// kind: -machines or -optimize.
	"models": {
		// "all" and "" select the same sweep; canonicalize to "all" so
		// both spellings share one fingerprint. Explicit lists keep their
		// order — it is report order, a semantic input.
		keep:  func(d *Spec, s Spec) { d.Models = orDefault(strings.ReplaceAll(lower(s.Models), " ", ""), "all") },
		check: func(s Spec) error { _, err := machines.Select(s.Models); return fieldErr("models", err) },
		flag:  func(s Spec) string { return "-" + s.Kind + " " + s.Models },
	},
	// The default budget is part of the canonical spec: a request that
	// spells it out fingerprints like one that relies on it.
	"budget": {
		keep: func(d *Spec, s Spec) { d.Budget = positiveOr(s.Budget, optimize.DefaultBudget) },
		flag: func(s Spec) string { return "-budget " + strconv.Itoa(s.Budget) },
	},
	// Candidates joined the spec after budget: its default canonicalizes
	// to 0, so every spec written before it keeps its fingerprint.
	"candidates": {
		keep: func(d *Spec, s Spec) {
			if s.Candidates > 0 && s.Candidates != optimize.DefaultTopK {
				d.Candidates = s.Candidates
			}
		},
		flag: func(s Spec) string {
			return "-candidates " + strconv.Itoa(positiveOr(s.Candidates, optimize.DefaultTopK))
		},
	},
}

// Normalized canonicalizes the spec: defaults filled, case folded, and
// every parameter the kind's entry does not declare zeroed, so two
// requests that would compute the same document carry the same bytes
// into Fingerprint. An unknown kind keeps only its kind, stack and
// quality; Validate rejects it.
func (s Spec) Normalized() Spec {
	c := Spec{Kind: lower(s.Kind)}
	params["stack"].keep(&c, s)
	params["quality"].keep(&c, s)
	e := lookup(c.Kind)
	if e == nil {
		return c
	}
	declared := e.declared()
	for _, name := range declared {
		params[name].keep(&c, s)
	}
	for _, name := range []string{"stack", "quality"} {
		if !slices.Contains(declared, name) && params[name].check(c) == nil {
			// A kind that does not read the parameter computes the
			// same document for any value: a valid one canonicalizes
			// to the default, an invalid one stays for Validate to
			// reject.
			params[name].keep(&c, Spec{})
		}
	}
	return c
}

// Validate checks a normalized spec, returning a *SpecError naming the
// first offending field.
func (s Spec) Validate() error {
	e := lookup(s.Kind)
	if e == nil {
		msg := "required (" + strings.Join(Kinds(), ", ") + ")"
		if s.Kind != "" {
			msg = fmt.Sprintf("unknown kind %q (want %s)", s.Kind, strings.Join(Kinds(), ", "))
		}
		return &SpecError{Field: "kind", Msg: msg}
	}
	for _, name := range append([]string{"stack", "quality"}, e.declared()...) {
		if check := params[name].check; check != nil {
			if err := check(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// Fingerprint identifies the document this spec computes: a hash of the
// canonical spec and the checkout identity. Equal fingerprints are the
// daemon's license to memoize and coalesce.
func (s Spec) Fingerprint(gitDescribe string) string {
	c := s.Normalized()
	b, err := json.Marshal(c)
	if err != nil {
		// A Spec of plain scalars cannot fail to marshal; guard anyway.
		b = []byte(fmt.Sprintf("%+v", c))
	}
	h := sha256.Sum256(append(b, []byte("|"+gitDescribe)...))
	return hex.EncodeToString(h[:8])
}

// command is the protolat invocation that reproduces the document of a
// canonical spec — the manifest's command. It walks the entry's
// parameters in order: a literal flag ("-faults") is written as is, a
// parameter through its flag, and a parameter marked optional ("rates?")
// only when it differs from the kind's default.
func (s Spec) command() string {
	e := lookup(s.Kind)
	if e == nil {
		return "protolat"
	}
	var def *Spec
	words := []string{"protolat"}
	for _, w := range e.params {
		name, optional := strings.CutSuffix(w, "?")
		p, ok := params[name]
		switch {
		case !ok:
			words = append(words, w) // a literal flag
		case p.flag == nil:
		case optional:
			if def == nil {
				d := Spec{Kind: s.Kind}.Normalized()
				def = &d
			}
			if arg := p.flag(s); arg != p.flag(*def) {
				words = append(words, arg)
			}
		default:
			words = append(words, p.flag(s))
		}
	}
	return strings.Join(words, " ")
}

// version resolves the spec's Version name.
func (s Spec) version() (core.Version, error) {
	for _, v := range core.Versions() {
		if strings.EqualFold(v.String(), s.Version) {
			return v, nil
		}
	}
	return 0, &SpecError{Field: "version", Msg: fmt.Sprintf("unknown version %q", s.Version)}
}

// stackKind resolves the spec's Stack name (already validated).
func (s Spec) stackKind() core.StackKind {
	if s.Stack == "rpc" {
		return core.StackRPC
	}
	return core.StackTCPIP
}

// quality resolves the spec's Quality preset.
func (s Spec) quality() core.Quality {
	if s.Quality == "paper" {
		return core.PaperQuality
	}
	return core.Quick
}

// rates parses the spec's fault-rate list; nil when it is empty.
func (s Spec) rates() []float64 {
	if s.Rates == "" {
		return nil
	}
	r, _ := parseRates(s.Rates) // validated: cannot fail
	return r
}

// parseRates parses a comma-separated fault-rate list.
func parseRates(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		var r float64
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%g", &r); err != nil || r < 0 || r > 1 {
			return nil, fmt.Errorf("bad fault rate %q (want 0..1)", part)
		}
		out = append(out, r)
	}
	return out, nil
}

func lower(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func positiveOr(n, def int) int {
	if n <= 0 {
		return def
	}
	return n
}

// fieldErr names the field a parse error belongs to; nil stays nil.
func fieldErr(field string, err error) error {
	if err == nil {
		return nil
	}
	return &SpecError{Field: field, Msg: err.Error()}
}

func oneOf(field, v string, allowed ...string) error {
	for _, a := range allowed {
		if v == a {
			return nil
		}
	}
	return &SpecError{Field: field, Msg: fmt.Sprintf("unknown %s %q (want %s)", field, v, strings.Join(allowed, " or "))}
}

func inRange(field string, n, hi int) error {
	if n < 1 || n > hi {
		return &SpecError{Field: field, Msg: fmt.Sprintf("%s %d out of range (want 1..%d)", field, n, hi)}
	}
	return nil
}
