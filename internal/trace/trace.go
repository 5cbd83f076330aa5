// Package trace records and replays instruction traces — the raw material
// of the paper's methodology ("we collected execution traces and measured
// the execution time of the traced code"). A recorded trace can be
// replayed against any machine geometry, which is how the sensitivity
// sweeps vary i-cache size, associativity and memory latency without
// re-running the protocol simulation.
package trace

import (
	"repro/internal/arch"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
)

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

// Replay executes the trace on a fresh machine of the given description,
// with one warm-up pass so the measured pass sees steady-state caches (as
// the paper's measurements do), and returns the measured metrics plus the
// hierarchy for cache-statistics inspection.
func Replay(t *Trace, m arch.Machine) (cpu.Metrics, *mem.Hierarchy, error) {
	if err := m.Validate(); err != nil {
		return cpu.Metrics{}, nil, err
	}
	h := mem.New(m)
	c := cpu.New(h)
	c.Run(t.Entries) // warm-up pass
	h.BeginEpoch()
	before := c.Metrics()
	c.Run(t.Entries)
	return c.Metrics().Sub(before), h, nil
}
