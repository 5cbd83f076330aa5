// Package trace records instruction traces — the raw material of the
// paper's methodology ("we collected execution traces and measured the
// execution time of the traced code"). core.RecordTrace fills a Trace from
// an engine Observer; the engine's differential test compares recorded
// streams, and the benchmark's cpu and mem probes time the simulator's
// layers on one.
package trace

import "repro/internal/sim/cpu"

// Trace is a recorded instruction stream.
type Trace struct {
	Entries []cpu.Entry
}

// Recorder collects entries from an engine Observer.
func (t *Trace) Recorder() func(cpu.Entry) {
	return func(e cpu.Entry) { t.Entries = append(t.Entries, e) }
}

// Len returns the dynamic instruction count.
func (t *Trace) Len() int { return len(t.Entries) }
