package layout

import (
	"repro/internal/arch"
	"repro/internal/code"
)

// Default region bases. They are chosen so that, modulo the 2 MB b-cache,
// well-behaved code does not collide with the static-data region; the BAD
// layout deliberately picks a base that does.
const (
	// DefaultCloneBase is where cloned code is packed; 8 KB-aligned so
	// address offsets equal i-cache set offsets, and 1 MB modulo the
	// b-cache, away from the data regions near offset 0.
	DefaultCloneBase = 0x0030_0000
	// BadCloneBase has b-cache offset 0x40000 — the start of the heap,
	// where connection state and message buffers live — so the pessimal
	// layout's code collides with hot data in the b-cache as well.
	BadCloneBase = 0x0204_0000
)

// stripeAlloc packs segments at increasing addresses while keeping every
// segment's i-cache set range inside [lo, hi) — the partition discipline of
// the bipartite layout. When a segment would spill past hi, the allocator
// skips to offset lo of the next cache-sized stripe, leaving a gap.
type stripeAlloc struct {
	cache uint64 // i-cache size in bytes
	lo    uint64 // inclusive set-offset floor
	hi    uint64 // exclusive set-offset ceiling
	cur   uint64 // next candidate address
	gaps  uint64 // bytes skipped
}

func newStripeAlloc(base, cache, lo, hi uint64) *stripeAlloc {
	return &stripeAlloc{cache: cache, lo: lo, hi: hi, cur: base + lo}
}

// place returns the address for a segment of size bytes.
func (a *stripeAlloc) place(size uint64) uint64 {
	off := a.cur % a.cache
	if off < a.lo {
		a.gaps += a.lo - off
		a.cur += a.lo - off
		off = a.lo
	}
	if off+size > a.hi && off != a.lo {
		// Skip to the next stripe.
		next := a.cur - off + a.cache + a.lo
		a.gaps += next - a.cur
		a.cur = next
	}
	addr := a.cur
	a.cur += size
	return addr
}

// placeHotCold places every spec'd function's mainline into segments chosen
// by hotSegs, gathers all their outlinable blocks into a shared cold region
// past the hot code (so partitions stay dense, as when clones share outlined
// code with the originals), and places the remaining functions sequentially
// after that.
func placeHotCold(p *code.Program, s Spec, hotSegs func(f *code.Function, hot []string) []code.Segment, base uint64) error {
	inSpec := map[string]bool{}
	order := append(append([]string(nil), s.Path...), s.Library...)
	for _, n := range order {
		inSpec[n] = true
	}

	// Phase 1: pick hot segments.
	hotPlaced := map[string][]code.Segment{}
	end := base
	for _, n := range order {
		f := p.Func(n)
		segs := hotSegs(f, code.HotLabels(f))
		hotPlaced[n] = segs
		for _, sg := range segs {
			e := sg.Addr + code.SegmentBytes(f, sg.Labels)
			if e > end {
				end = e
			}
		}
	}

	// Phase 2: place hot + cold segments.
	coldCursor := end
	for _, n := range order {
		f := p.Func(n)
		cold := code.ColdLabels(f)
		segs := hotPlaced[n]
		if len(cold) > 0 {
			segs = append(segs, code.Segment{Addr: coldCursor, Labels: cold})
			coldCursor += code.SegmentBytes(f, cold)
		}
		if err := p.Place(n, segs); err != nil {
			return err
		}
	}

	// Phase 3: everything else, sequentially.
	cursor := coldCursor
	for _, n := range p.Names() {
		if inSpec[n] {
			continue
		}
		e, err := p.PlaceSequential(n, cursor, nil)
		if err != nil {
			return err
		}
		cursor = e
	}
	return p.FinishLayout()
}

// Bipartite clones and lays out the spec'd functions with the paper's
// winning strategy: the i-cache is split into a path partition and a library
// partition; within each partition functions are packed contiguously in
// invocation order, and the path partition wraps around the cache in stripes
// that never touch the library partition's sets. Outlined blocks are shared
// in a cold region past the hot code, and cloning's specialization (shorter
// prologues, PC-relative calls) is applied.
func Bipartite(p *code.Program, s Spec, m arch.Machine, base uint64) (*code.Program, error) {
	if err := s.validate(p); err != nil {
		return nil, err
	}
	q := p.Clone()
	specialize(q, s)

	cache := uint64(m.ICacheBytes)
	var libBytes uint64
	for _, n := range s.Library {
		f := q.Func(n)
		libBytes += code.SegmentBytes(f, code.HotLabels(f))
	}
	if libBytes > cache/2 {
		libBytes = cache / 2
	}
	// Round the partition boundary to a cache block.
	block := uint64(m.BlockBytes)
	libBytes = (libBytes + block - 1) &^ (block - 1)
	boundary := cache - libBytes

	pathAlloc := newStripeAlloc(base, cache, 0, boundary)
	libAlloc := newStripeAlloc(base, cache, boundary, cache)

	pathSet := map[string]bool{}
	for _, n := range s.Path {
		pathSet[n] = true
	}
	err := placeHotCold(q, s, func(f *code.Function, hot []string) []code.Segment {
		if pathSet[f.Name] {
			return pathAlloc.placeSegments(f, hot)
		}
		return libAlloc.placeSegments(f, hot)
	}, base)
	if err != nil {
		return nil, err
	}
	return q, nil
}

// Linear clones and lays out the spec'd functions strictly in invocation
// order with no path/library distinction — the strategy the paper
// recommends when the whole path fits in the i-cache.
func Linear(p *code.Program, s Spec, m arch.Machine, base uint64) (*code.Program, error) {
	if err := s.validate(p); err != nil {
		return nil, err
	}
	q := p.Clone()
	specialize(q, s)
	cursor := base
	err := placeHotCold(q, s, func(f *code.Function, hot []string) []code.Segment {
		addr := cursor
		cursor += code.SegmentBytes(f, hot)
		return []code.Segment{{Addr: addr, Labels: hot}}
	}, base)
	if err != nil {
		return nil, err
	}
	return q, nil
}

// Bad uses the cloning machinery to construct the paper's pessimal layout:
// every cloned function is placed a full b-cache apart, so all of them map
// onto the same i-cache *and* b-cache sets — path and library functions
// continuously evict one another at both levels — and the shared sets also
// cover the heap's hot data (connection state, message buffers).
func Bad(p *code.Program, s Spec, m arch.Machine) (*code.Program, error) {
	if err := s.validate(p); err != nil {
		return nil, err
	}
	q := p.Clone()
	specialize(q, s)
	stride := uint64(m.BCacheBytes)
	k := uint64(0)
	err := placeHotCold(q, s, func(f *code.Function, hot []string) []code.Segment {
		addr := BadCloneBase + k*stride
		k++
		return []code.Segment{{Addr: addr, Labels: hot}}
	}, BadCloneBase)
	if err != nil {
		return nil, err
	}
	return q, nil
}

// placeSegments packs a function's hot blocks into this allocator's
// partition, splitting across stripes when the blocks do not fit the
// remaining room (the split costs one explicit branch, materialized by the
// engine when consecutive blocks are not physically adjacent).
func (a *stripeAlloc) placeSegments(f *code.Function, labels []string) []code.Segment {
	var segs []code.Segment
	var cur []string
	room := func() uint64 {
		off := a.cur % a.cache
		if off < a.lo || off >= a.hi {
			return 0
		}
		return a.hi - off
	}
	flush := func() {
		if len(cur) == 0 {
			return
		}
		addr := a.place(code.SegmentBytes(f, cur))
		segs = append(segs, code.Segment{Addr: addr, Labels: append([]string(nil), cur...)})
		cur = nil
	}
	for _, l := range labels {
		next := append(cur, l)
		if code.SegmentBytes(f, next) > room() && len(cur) > 0 {
			flush()
			// Move to the next stripe so the rest starts fresh.
			a.cur = a.cur - a.cur%a.cache + a.cache + a.lo
			next = []string{l}
		}
		cur = next
	}
	flush()
	if len(segs) == 0 {
		segs = []code.Segment{{Addr: a.place(0), Labels: nil}}
	}
	return segs
}
