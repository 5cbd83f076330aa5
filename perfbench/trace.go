package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// tracer keeps spans in memory: one for each call the benchmark makes into
// a layer during a traced operation. Its methods are safe for concurrent
// use, and a nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// span is one timed call. Spans of one operation share its root through
// their parent links.
type span struct {
	name       string
	tag        string // how the call was served, where that varies
	parent     int    // index of the enclosing span, -1 for a root
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// when returns t if on, else nil, so the callee records nothing.
func (t *tracer) when(on bool) *tracer {
	if on {
		return t
	}
	return nil
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.endTagged(i, "") }

func (t *tracer) endTagged(i int, tag string) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = now
	t.spans[i].tag = tag
}

// spanStat summarizes the spans of one name (and tag).
type spanStat struct {
	name           string
	count          int
	p50MS, totalMS float64
	selfMS         float64 // total minus the time child spans cover
}

// summary aggregates the spans by name and tag, in order of first
// appearance.
func (t *tracer) summary() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += float64(s.end-s.start) / 1e6
		}
	}
	idx := map[string]int{}
	var stats []spanStat
	var durs [][]float64
	for i, s := range t.spans {
		key := s.name
		if s.tag != "" {
			key += "[" + s.tag + "]"
		}
		j, ok := idx[key]
		if !ok {
			j = len(stats)
			idx[key] = j
			stats = append(stats, spanStat{name: key})
			durs = append(durs, nil)
		}
		ms := float64(s.end-s.start) / 1e6
		stats[j].count++
		stats[j].totalMS += ms
		stats[j].selfMS += ms - child[i]
		durs[j] = append(durs[j], ms)
	}
	for j := range stats {
		stats[j].p50MS = median(durs[j])
	}
	return stats
}

func printSpans(w io.Writer, stats []spanStat) {
	fmt.Fprintln(w, "\n| span | count | p50 ms | total ms | self ms |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|")
	for _, s := range stats {
		fmt.Fprintf(w, "| %s | %d | %.3f | %.1f | %.1f |\n", s.name, s.count, s.p50MS, s.totalMS, s.selfMS)
	}
}

// tracedSplit returns the median operation time of the traced and the
// untraced operations of one window.
func tracedSplit(o *outcome) (on, off float64) {
	var a, b []float64
	for i, ms := range o.opMS {
		if o.traced[i] {
			a = append(a, ms)
		} else {
			b = append(b, ms)
		}
	}
	return median(a), median(b)
}

// perLayerNames lists the per-layer metric names in report order.
func perLayerNames(layers []metric) []string {
	names := make([]string, len(layers))
	for i, m := range layers {
		names[i] = m.name
	}
	sort.Strings(names)
	return names
}
