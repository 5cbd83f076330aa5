package layout

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/code"
)

// CloneForConnections implements the delayed-cloning end of §3.2's
// trade-off: "cloning at connection creation time will lead to one cloned
// copy per connection, while cloning at protocol stack creation time will
// require only one copy per protocol stack. By choosing the point at which
// cloning is performed, it is possible to trade off locality of reference
// with the amount of specialization that can be applied."
//
// Each connection gets a private clone of every path function, named
// "<fn>$c<i>", specialized with the connection's constant state partially
// evaluated in: beyond the usual prologue/call-load specialization, a
// fraction of the loads from connection state become unnecessary (the
// values are baked into the code) along with their dependent ALU work.
// Every clone set is packed with its own bipartite layout; clones of
// different connections are placed a full i-cache apart, so alternating
// connections exhibit exactly the locality loss the paper warns about.
//
// The returned program keeps the original functions (they serve as the
// shared fallback) and a name mapping usable with xkernel.Host's
// ModelSelector.
func CloneForConnections(p *code.Program, s Spec, m arch.Machine, base uint64, nConns int) (*code.Program, func(conn int, name string) string, error) {
	if nConns < 1 {
		return nil, nil, fmt.Errorf("layout: need at least one connection, got %d", nConns)
	}
	if err := s.validate(p); err != nil {
		return nil, nil, err
	}
	q := p.Clone()

	// Create the per-connection clones (path functions only; library
	// functions stay shared, as §3.3 requires for repeatedly-used code).
	cloneName := func(conn int, name string) string {
		return fmt.Sprintf("%s$c%d", name, conn)
	}
	for conn := 0; conn < nConns; conn++ {
		for _, n := range s.Path {
			f := q.Func(n)
			cl := f.Clone(cloneName(conn, n))
			connectionSpecialize(cl, conn, s, cloneName)
			if err := q.Add(cl); err != nil {
				return nil, nil, err
			}
		}
	}

	// Lay out: each connection's clone set is bipartite-packed at its own
	// base; the library partition is shared by construction (library
	// functions are placed once, with the first clone set).
	cache := uint64(m.ICacheBytes)
	cursor := base
	for conn := 0; conn < nConns; conn++ {
		spec := Spec{Library: nil}
		for _, n := range s.Path {
			spec.Path = append(spec.Path, cloneName(conn, n))
		}
		if conn == 0 {
			spec.Library = s.Library
		}
		// Place this clone set: reuse the bipartite allocators inline.
		boundary := bipartiteBoundary(q, s.Library, m)
		pathAlloc := newStripeAlloc(cursor, cache, 0, boundary)
		libAlloc := newStripeAlloc(cursor, cache, boundary, cache)
		pathSet := map[string]bool{}
		for _, n := range spec.Path {
			pathSet[n] = true
		}
		// Hot/cold placement for just this spec's functions.
		err := placeSubset(q, spec, func(f *code.Function, hot []string) []code.Segment {
			if pathSet[f.Name] {
				return pathAlloc.placeSegments(f, hot)
			}
			return libAlloc.placeSegments(f, hot)
		}, &cursor)
		if err != nil {
			return nil, nil, err
		}
		// Next connection's clones start a full cache past this set.
		cursor = (cursor + cache) &^ (cache - 1)
	}

	// The originals and anything else go after the clone sets.
	for _, n := range q.Names() {
		if q.Placement(n) != nil {
			continue
		}
		end, err := q.PlaceSequential(n, cursor, nil)
		if err != nil {
			return nil, nil, err
		}
		cursor = end
	}
	if err := q.FinishLayout(); err != nil {
		return nil, nil, err
	}

	sel := func(conn int, name string) string {
		if conn < 0 || conn >= nConns {
			return name
		}
		for _, n := range s.Path {
			if n == name {
				return cloneName(conn, name)
			}
		}
		return name
	}
	return q, sel, nil
}

// connectionSpecialize partially evaluates connection-constant state into a
// clone: the usual prologue/call-load trimming plus removal of roughly a
// quarter of the loads from per-connection objects and a matching slice of
// dependent ALU work. Calls are retargeted to the same connection's clones.
func connectionSpecialize(f *code.Function, conn int, s Spec, cloneName func(int, string) string) {
	pathSet := map[string]bool{}
	for _, n := range s.Path {
		pathSet[n] = true
	}
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		droppedPrologue := false
		constLoads := 0
		for _, in := range b.Instrs {
			if in.Prologue && !droppedPrologue {
				droppedPrologue = true
				continue
			}
			if in.IsCall() && pathSet[in.Call()] {
				if in.CallLoad {
					continue // PC-relative within the clone set
				}
				in.SetCall(cloneName(conn, in.Call()))
			}
			// Partial evaluation: every fourth load of connection
			// state disappears into the code.
			if in.Op.AccessesMemory() && !in.IsCall() && isConnState(in.Data()) {
				constLoads++
				if constLoads%4 == 0 {
					continue
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
}

// isConnState reports whether a data symbol is per-connection state that a
// connection-time clone can treat as constant.
func isConnState(sym string) bool {
	switch sym {
	case "tcp.tcb", "chan.state", "vchan.pool", "bid.state":
		return true
	}
	return false
}

// bipartiteBoundary computes the library-partition boundary for a spec.
func bipartiteBoundary(p *code.Program, library []string, m arch.Machine) uint64 {
	cache := uint64(m.ICacheBytes)
	var libBytes uint64
	for _, n := range library {
		f := p.Func(n)
		if f == nil {
			continue
		}
		libBytes += code.SegmentBytes(f, code.HotLabels(f))
	}
	if libBytes > cache/2 {
		libBytes = cache / 2
	}
	block := uint64(m.BlockBytes)
	libBytes = (libBytes + block - 1) &^ (block - 1)
	return cache - libBytes
}

// placeSubset places just the spec'd functions (hot in the given allocator,
// cold collected behind them) without finishing the layout; cursor is
// advanced past everything placed.
func placeSubset(p *code.Program, s Spec, hotSegs func(f *code.Function, hot []string) []code.Segment, cursor *uint64) error {
	order := append(append([]string(nil), s.Path...), s.Library...)
	end := *cursor
	hotPlaced := map[string][]code.Segment{}
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
	*cursor = coldCursor
	return nil
}
