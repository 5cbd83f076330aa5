package core

import (
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/protocols/features"
)

// coverageOf marks every instruction address of p's placed blocks in bs
// and returns the resulting count.
func coverageOf(bs *addrBitset, p *code.Program) int {
	for _, sp := range p.TextMap() {
		for a := sp.Start; a < sp.End; a += 4 {
			bs.add(a)
		}
	}
	return bs.count
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
