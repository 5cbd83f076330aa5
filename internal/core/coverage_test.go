package core

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/machines"
	"repro/internal/protocols/features"
)

// refCoverage is the per-address reference lineCoverage is held to: the
// sets of executed instruction words and fetched lines, marked one
// address at a time, the way coverage was counted before it took whole
// runs.
type refCoverage struct {
	shift        uint
	words, lines map[uint64]bool
}

func (r *refCoverage) add(addr uint64) {
	r.words[addr>>2] = true
	r.lines[addr>>r.shift] = true
}

// masks returns each fetched line's executed-word mask, laid out as
// lineCoverage lays it out.
func (r *refCoverage) masks() map[uint64][]uint64 {
	stride := int(max(1, (uint64(1)<<r.shift>>2+63)/64))
	out := map[uint64][]uint64{}
	for line := range r.lines {
		out[line] = make([]uint64, stride)
	}
	for w := range r.words {
		i := w - w>>(r.shift-2)<<(r.shift-2) // word index within its line
		out[w>>(r.shift-2)][i>>6] |= 1 << (i & 63)
	}
	return out
}

// masksOf returns each line lineCoverage marked and its mask.
func masksOf(c *lineCoverage) map[uint64][]uint64 {
	out := map[uint64][]uint64{}
	for line, i := range c.index {
		out[line] = c.masks[i : i+c.stride]
	}
	return out
}

// sameMasks reports whether two line-to-mask maps are equal.
func sameMasks(a, b map[uint64][]uint64) bool {
	return maps.EqualFunc(a, b, func(x, y []uint64) bool { return slices.Equal(x, y) })
}

// coverageOf marks every placed block of p in c, one range per block, and
// returns the resulting word and line counts.
func coverageOf(c *lineCoverage, p *code.Program) (words, lines int) {
	for _, sp := range p.TextMap() {
		if sp.End > sp.Start {
			c.addRange(sp.Start, sp.End-4)
		}
	}
	return c.executed, c.lines()
}

// TestCoverageMatchesPerAddress: marking a stretch of instructions in one
// addRange call must record exactly the lines, masks and word count that
// marking its addresses one at a time records, for stretches that start
// and end on either side of line and mask-word boundaries, overlap, and
// repeat, at line sizes from 4 bytes to 512 (two mask words per line).
func TestCoverageMatchesPerAddress(t *testing.T) {
	const base = 0x10040
	type stretch struct{ addr, n uint64 }
	cases := [][]stretch{
		{{base, 1}},
		{{base, 64}},            // 256 bytes
		{{base + 60*4, 8}},      // straddles a 256-byte boundary
		{{base + 4, 200}},       // spans many lines
		{{base - 16, 8}},        // crosses a 64-byte boundary
		{{base + 0x1fff8, 3}},   // ends far from the rest
		{{base, 1}, {base, 64}}, // overlapping marks count once
		{{base + 100, 30}, {base + 80, 30}, {base + 4000, 1}},
	}
	for _, shift := range []uint{2, 5, 6, 7, 9} {
		for ci, marks := range cases {
			want := &refCoverage{shift: shift, words: map[uint64]bool{}, lines: map[uint64]bool{}}
			got := &lineCoverage{index: map[uint64]int{}}
			got.reset(shift)
			for _, st := range marks {
				for k := uint64(0); k < st.n; k++ {
					want.add(st.addr + 4*k)
				}
				got.addRange(st.addr, st.addr+4*(st.n-1))
			}
			if got.executed != len(want.words) || got.lines() != len(want.lines) ||
				!sameMasks(masksOf(got), want.masks()) {
				t.Errorf("shift %d case %d: addRange %d words in %d lines, per address %d in %d",
					shift, ci, got.executed, got.lines(), len(want.words), len(want.lines))
			}
		}
	}
}

// TestRunCoverageMatchesPerEntry: the unused i-cache fraction a sample
// reports from run-level coverage must equal the one counted entry by
// entry over the traced invocation's instruction stream, at the machine's
// own block size, for every version of both stacks on the baseline, a
// 64-byte-line machine and a victim-buffer machine.
func TestRunCoverageMatchesPerEntry(t *testing.T) {
	for _, name := range []string{"dec3000", "line64", "victim8"} {
		model, err := machines.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m := model.Machine
		for _, kind := range []StackKind{StackTCPIP, StackRPC} {
			for _, v := range Versions() {
				cfg := DefaultConfig(kind, v)
				cfg.Machine = m
				cfg.Warmup, cfg.Measured, cfg.Samples = 4, 4, 1
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := RecordTrace(cfg)
				if err != nil {
					t.Fatal(err)
				}
				executed, blocks := map[uint64]bool{}, map[uint64]bool{}
				for _, e := range tr.Entries {
					executed[e.Addr] = true
					blocks[e.Addr/uint64(m.BlockBytes)] = true
				}
				want := 1 - float64(len(executed))/float64(len(blocks)*m.InstrPerBlock())
				if got := res.First().UnusedICacheFrac; got != max(want, 0) {
					t.Errorf("%s/%v/%v: unused i-cache fraction %v, per entry %v", name, kind, v, got, want)
				}
			}
		}
	}
}

// TestCoverageReuseAfterBAD: a coverage first used on version BAD's image,
// whose pessimal layout spans about 100 MB of text, and then reset for
// each other version must count exactly what a fresh coverage counts, and
// hold the same lines and masks. The pooled path is exercised too, for
// whatever the pool hands back.
func TestCoverageReuseAfterBAD(t *testing.T) {
	m := arch.DEC3000_600()
	for _, kind := range []StackKind{StackTCPIP, StackRPC} {
		bad, err := BuildProgram(kind, BAD, features.Improved(), Bipartite, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, shift := range []uint{5, 6} {
			reused := newLineCoverage(shift)
			if words, _ := coverageOf(reused, bad); words == 0 {
				t.Fatalf("%v: BAD image covered nothing", kind)
			}
			for _, v := range Versions() {
				p, err := BuildProgram(kind, v, features.Improved(), Bipartite, m)
				if err != nil {
					t.Fatal(err)
				}
				fresh := &lineCoverage{index: map[uint64]int{}}
				fresh.reset(shift)
				wantWords, wantLines := coverageOf(fresh, p)

				reused.reset(shift)
				if words, lines := coverageOf(reused, p); words != wantWords || lines != wantLines {
					t.Fatalf("%v/%v shift %d: reused coverage counts %d words in %d lines, fresh %d in %d",
						kind, v, shift, words, lines, wantWords, wantLines)
				}
				if !sameMasks(masksOf(reused), masksOf(fresh)) {
					t.Fatalf("%v/%v shift %d: reused coverage masks differ from a fresh one", kind, v, shift)
				}
				// Leave the BAD image's marks behind again for the next
				// version.
				reused.reset(shift)
				coverageOf(reused, bad)

				pooled := newLineCoverage(shift)
				if words, lines := coverageOf(pooled, p); words != wantWords || lines != wantLines {
					t.Fatalf("%v/%v shift %d: pooled coverage counts %d words in %d lines, fresh %d in %d",
						kind, v, shift, words, lines, wantWords, wantLines)
				}
				pooled.release()
			}
			reused.release()
		}
	}
}
