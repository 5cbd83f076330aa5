// Package faults is the deterministic fault-injection subsystem: a
// seed-driven Plan composes per-link fault processes — Bernoulli packet
// loss, payload corruption, duplication, reordering, and delay jitter —
// and an Injector applies the plan to every frame crossing a netsim.Link.
//
// Determinism is the design constraint. The injector owns a private
// splitmix64/xorshift generator seeded from the plan; the decision for
// frame N depends only on the seed and the N-1 frames before it, so a run
// with the same plan over the same traffic replays exactly, regardless of
// worker-pool width. Plans derive per-sample seeds with ForSample, keeping
// parallel experiment runs byte-identical to serial ones.
package faults

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/protocols/wire"
)

// Plan is one link's fault configuration. The zero value injects nothing.
type Plan struct {
	// Seed drives every random decision; identical seeds and traffic
	// reproduce identical fault sequences.
	Seed uint64

	// LossProb is the independent (Bernoulli) per-frame loss probability.
	LossProb float64

	// CorruptProb flips CorruptBits random bits (default 3) in the frame
	// past the Ethernet header, so IP/TCP checksum branches fire rather
	// than the address filter.
	CorruptProb float64
	CorruptBits int

	// DupProb delivers a second copy of the frame one wire-time later.
	DupProb float64

	// ReorderProb holds the frame back by ReorderDelayCycles (default:
	// one minimum-frame wire time), letting a later frame overtake it.
	ReorderProb        float64
	ReorderDelayCycles uint64

	// JitterProb adds a uniform random delay in [0, JitterCycles] to the
	// delivery time.
	JitterProb   float64
	JitterCycles uint64
}

// Active reports whether the plan can inject any fault at all.
func (p Plan) Active() bool {
	return p.LossProb > 0 || p.CorruptProb > 0 ||
		p.DupProb > 0 || p.ReorderProb > 0 || (p.JitterProb > 0 && p.JitterCycles > 0)
}

// ForSample derives the plan for one experiment sample: same fault rates,
// a sample-specific seed. Sample derivation uses the same mixing as the
// injector's generator, so distinct samples see decorrelated streams.
func (p Plan) ForSample(i int) Plan {
	p.Seed = Mix(p.Seed, uint64(i))
	return p
}

// Mix combines two values into a well-distributed seed (splitmix64 over
// their sum); exported so experiment code can derive per-cell seeds the
// same way plans derive per-sample ones.
func Mix(a, b uint64) uint64 {
	return splitmix64(a + 0x9e3779b97f4a7c15*(b+1))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Counters tallies injected faults. Frames counts every transmission the
// injector inspected; the remaining fields count frames it acted on (a
// frame can be both duplicated and delayed, so the action counts need not
// sum to Frames).
type Counters struct {
	Frames     int
	Dropped    int
	Corrupted  int
	Duplicated int
	Reordered  int
	Jittered   int
}

// Injected totals the fault actions (not the inspected frames).
func (c Counters) Injected() int {
	return c.Dropped + c.Corrupted + c.Duplicated + c.Reordered + c.Jittered
}

// Add accumulates another tally into c.
func (c *Counters) Add(o Counters) {
	c.Frames += o.Frames
	c.Dropped += o.Dropped
	c.Corrupted += o.Corrupted
	c.Duplicated += o.Duplicated
	c.Reordered += o.Reordered
	c.Jittered += o.Jittered
}

// String renders the counters in one line for log output.
func (c Counters) String() string {
	return fmt.Sprintf("faults{frames=%d drop=%d corrupt=%d dup=%d reorder=%d jitter=%d}",
		c.Frames, c.Dropped, c.Corrupted, c.Duplicated, c.Reordered, c.Jittered)
}

// Injector applies a Plan to a link. It is not safe for concurrent use —
// each simulated run owns its injector, matching the one-goroutine-per-
// sample execution model.
type Injector struct {
	Plan Plan
	Counters

	rng uint64
}

// New builds an injector for the plan, filling in defaults: 3 corruption
// bit flips, one minimum-frame wire time of reordering delay.
func New(plan Plan) *Injector {
	if plan.CorruptBits <= 0 {
		plan.CorruptBits = 3
	}
	if plan.ReorderDelayCycles == 0 {
		plan.ReorderDelayCycles = netsim.WireTimeCycles(wire.EthMinFrame)
	}
	rng := splitmix64(plan.Seed)
	if rng == 0 {
		rng = 0x9e3779b97f4a7c15 // xorshift must not start at zero
	}
	return &Injector{Plan: plan, rng: rng}
}

// Attach installs the injector on a link.
func (in *Injector) Attach(l *netsim.Link) { l.Inject = in.Decide }

// next is xorshift64*: fast, deterministic, private to this injector.
func (in *Injector) next() uint64 {
	x := in.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	in.rng = x
	return x * 0x2545f4914f6cdd1d
}

// roll performs one Bernoulli trial with probability p.
func (in *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(in.next()>>11)/(1<<53) < p
}

// Decide is the per-frame fault decision (the netsim.Link Inject hook). It
// may corrupt the frame in place — the link hands it the private in-flight
// copy — and returns the frame's fate.
func (in *Injector) Decide(frame []byte) netsim.Fault {
	in.Frames++
	var f netsim.Fault
	p := in.Plan

	if in.roll(p.LossProb) {
		in.Dropped++
		f.Drop = true
		return f
	}

	if in.roll(p.CorruptProb) {
		in.corrupt(frame)
	}
	if in.roll(p.DupProb) {
		in.Duplicated++
		f.Duplicate = true
	}
	if in.roll(p.ReorderProb) {
		in.Reordered++
		f.ExtraDelay += p.ReorderDelayCycles
	}
	if p.JitterCycles > 0 && in.roll(p.JitterProb) {
		in.Jittered++
		f.ExtraDelay += in.next() % (p.JitterCycles + 1)
	}
	return f
}

// corrupt flips Plan.CorruptBits random bits past the Ethernet header (so
// the frame still reaches the victim host and its checksum code, rather
// than dying in the address filter), falling back to the whole frame for
// runts.
func (in *Injector) corrupt(frame []byte) {
	if len(frame) == 0 {
		return
	}
	lo := wire.EthHeaderLen
	if lo >= len(frame) {
		lo = 0
	}
	in.Corrupted++
	span := len(frame) - lo
	for i := 0; i < in.Plan.CorruptBits; i++ {
		r := in.next()
		idx := lo + int(r%uint64(span))
		frame[idx] ^= 1 << ((r >> 32) & 7)
	}
}
