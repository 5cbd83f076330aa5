// Package layout implements the paper's latency-reducing code
// transformations: conservative outlining (§3.1), cloning with its layout
// strategies — bipartite, linear, micro-positioning, and the adversarial
// BAD layout (§3.2) — and path-inlining (§3.3). All transformations operate
// on internal/code programs and return freshly linked images; semantics are
// untouched because only block order, specialization, and addresses change.
package layout

import (
	"fmt"

	"repro/internal/code"
)

// Outline applies the conservative, language-based outliner: within every
// function, basic blocks annotated as error handling, initialization, or
// unrolled loop bodies are moved behind the mainline, in source order. The
// engine's placement-driven branch materialization then gives exactly the
// machine-code effect the paper describes: the mainline falls through where
// it used to take a jump around the cold code, and the cold path pays one
// extra jump.
//
// The returned program is a deep copy and is not yet placed.
func Outline(p *code.Program) *code.Program {
	q := p.Clone()
	for _, f := range q.Funcs() {
		var hot, cold []*code.Block
		for _, b := range f.Blocks {
			if b.Kind.Outlinable() {
				cold = append(cold, b)
			} else {
				hot = append(hot, b)
			}
		}
		f.Blocks = append(hot, cold...)
	}
	return q
}

// Spec names the functions participating in a cloned layout: the path
// functions in invocation order and the library functions in first-use
// order. Functions of the program not listed are placed after the cloned
// regions in link order.
type Spec struct {
	Path    []string
	Library []string
}

// contains reports whether name participates in the spec.
func (s Spec) contains(name string) bool {
	for _, n := range s.Path {
		if n == name {
			return true
		}
	}
	for _, n := range s.Library {
		if n == name {
			return true
		}
	}
	return false
}

// validate checks every spec name resolves and no name repeats.
func (s Spec) validate(p *code.Program) error {
	seen := map[string]bool{}
	for _, n := range append(append([]string(nil), s.Path...), s.Library...) {
		if p.Func(n) == nil {
			return fmt.Errorf("layout: spec names unknown function %q", n)
		}
		if seen[n] {
			return fmt.Errorf("layout: spec names %q twice", n)
		}
		seen[n] = true
	}
	return nil
}

// specialize applies cloning's code specialization to every function in the
// spec: the first prologue instruction is skipped (the Alpha calling
// convention's GP reload is unnecessary between co-located functions), and
// the address-materializing load of calls between cloned functions is
// deleted because the jsr becomes a PC-relative branch. It returns the
// number of instructions removed.
func specialize(p *code.Program, s Spec) int {
	inSet := map[string]bool{}
	for _, n := range s.Path {
		inSet[n] = true
	}
	for _, n := range s.Library {
		inSet[n] = true
	}
	removed := 0
	for name := range inSet {
		f := p.Func(name)
		for _, b := range f.Blocks {
			out := b.Instrs[:0]
			droppedPrologue := false
			for _, in := range b.Instrs {
				if in.Prologue && !droppedPrologue {
					droppedPrologue = true
					removed++
					continue
				}
				if in.CallLoad && inSet[in.Call()] {
					removed++
					continue
				}
				out = append(out, in)
			}
			b.Instrs = out
		}
	}
	return removed
}

// Specialize applies cloning's code specialization (see specialize) to
// every function in the spec, in place, and returns the number of
// instructions removed. The layout optimizer uses it to build the
// specialized-but-unplaced reference image its candidates must stay
// move-only equivalent to: specialization is the one licensed instruction
// change, so applying it once up front means every candidate placement can
// be proved byte-identical to the reference.
func Specialize(p *code.Program, s Spec) int {
	return specialize(p, s)
}
