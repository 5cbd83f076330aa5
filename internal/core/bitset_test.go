package core

import (
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/machines"
	"repro/internal/protocols/features"
)

// add marks one address, the way coverage was counted before it took
// whole runs: the per-address reference addRange is held to.
func (s *addrBitset) add(addr uint64) {
	i := addr>>s.shift - s.base // below-base underflows past len
	w := i >> 6
	if w >= uint64(len(s.words)) {
		return
	}
	bit := uint64(1) << (i & 63)
	switch old := s.words[w]; {
	case old == 0:
		s.dirty = append(s.dirty, int(w))
	case old&bit != 0:
		return
	}
	s.words[w] |= bit
	s.count++
}

// coverageOf marks every placed block of p in bs, one range per block,
// and returns the resulting count.
func coverageOf(bs *addrBitset, p *code.Program) int {
	for _, sp := range p.TextMap() {
		if sp.End > sp.Start {
			bs.addRange(sp.Start, sp.End-4)
		}
	}
	return bs.count
}

// TestAddRangeMatchesPerAddress: marking a stretch of instructions in one
// addRange call must set exactly the words, dirty list and count that
// marking its addresses one at a time sets, for stretches that start and
// end on either side of word boundaries, below the base, past the end and
// exactly at the last tracked address.
func TestAddRangeMatchesPerAddress(t *testing.T) {
	const textBase, textEnd = 0x10040, 0x12000
	type stretch struct{ addr, n uint64 }
	cases := [][]stretch{
		{{textBase, 1}},
		{{textBase, 64}},                // one whole 4-byte word
		{{textBase + 60*4, 8}},          // straddles a word boundary
		{{textBase + 4, 200}},           // spans several words
		{{textBase - 16, 8}},            // starts below the base
		{{textBase - 64, 4}},            // entirely below the base
		{{textEnd - 8, 3}},              // ends exactly at TextEnd
		{{textEnd - 8, 40}},             // runs past the end
		{{textEnd + 1024, 16}},          // entirely past the end
		{{textBase, 1}, {textBase, 64}}, // overlapping marks count once
		{{textBase + 100, 30}, {textBase + 80, 30}, {textBase + 4000, 1}},
	}
	for _, shift := range []uint{2, 5, 6, 7} {
		for ci, marks := range cases {
			want, got := new(addrBitset), new(addrBitset)
			want.reset(textBase, textEnd, shift)
			got.reset(textBase, textEnd, shift)
			for _, st := range marks {
				for k := uint64(0); k < st.n; k++ {
					want.add(st.addr + 4*k)
				}
				got.addRange(st.addr, st.addr+4*(st.n-1))
			}
			if got.count != want.count || !slices.Equal(got.words, want.words) ||
				!slices.Equal(got.dirty, want.dirty) {
				t.Errorf("shift %d case %d: addRange count %d dirty %v, per address %d dirty %v",
					shift, ci, got.count, got.dirty, want.count, want.dirty)
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

// TestPooledBitsetAfterBADMatchesFresh: a coverage bitset first used on
// version BAD's image, whose pessimal layout spans about 100 MB of text,
// and then reset for each other version must count exactly what a fresh
// bitset counts, and hold the same words. The reset clears only the words
// the BAD run set, so a word it missed would show up here as an
// over-count. The pooled path is exercised too, for whatever the pool
// hands back.
func TestPooledBitsetAfterBADMatchesFresh(t *testing.T) {
	m := arch.DEC3000_600()
	for _, kind := range []StackKind{StackTCPIP, StackRPC} {
		bad, err := BuildProgram(kind, BAD, features.Improved(), Bipartite, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, shift := range []uint{2, 5} {
			reused := newAddrBitset(bad.TextBase(), bad.TextEnd(), shift)
			if coverageOf(reused, bad) == 0 {
				t.Fatalf("%v: BAD image covered nothing", kind)
			}
			for _, v := range Versions() {
				p, err := BuildProgram(kind, v, features.Improved(), Bipartite, m)
				if err != nil {
					t.Fatal(err)
				}
				fresh := new(addrBitset)
				fresh.reset(p.TextBase(), p.TextEnd(), shift)
				want := coverageOf(fresh, p)

				reused.reset(p.TextBase(), p.TextEnd(), shift)
				if got := coverageOf(reused, p); got != want {
					t.Fatalf("%v/%v shift %d: reused bitset counts %d, fresh %d", kind, v, shift, got, want)
				}
				if !slices.Equal(reused.words, fresh.words) {
					t.Fatalf("%v/%v shift %d: reused bitset words differ from a fresh one", kind, v, shift)
				}
				// Leave the BAD image's marks behind again for the next
				// version.
				reused.reset(bad.TextBase(), bad.TextEnd(), shift)
				coverageOf(reused, bad)

				pooled := newAddrBitset(p.TextBase(), p.TextEnd(), shift)
				if got := coverageOf(pooled, p); got != want {
					t.Fatalf("%v/%v shift %d: pooled bitset counts %d, fresh %d", kind, v, shift, got, want)
				}
				pooled.release()
			}
			reused.release()
		}
	}
}
