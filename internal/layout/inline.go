package layout

import (
	"fmt"

	"repro/internal/code"
)

// PathInline applies §3.3's transformation: starting from root, every call
// to a function in inlinable is expanded in place — call sequence deleted,
// callee prologue and epilogue dropped, callee blocks spliced in with
// renamed labels — recursively, so the entire latency-sensitive path
// collapses into one function. Calls to functions outside inlinable
// (library functions) are preserved: inlining repeatedly-used code would
// destroy its locality of reference and risk exponential growth.
//
// The returned program is a deep copy in which root has the merged body;
// the original path functions remain in the image (a packet that fails the
// path assumption would still run them), but the inlined root no longer
// references them.
func PathInline(p *code.Program, root string, inlinable []string) (*code.Program, error) {
	q := p.Clone()
	f := q.Func(root)
	if f == nil {
		return nil, fmt.Errorf("layout: PathInline: unknown root %q", root)
	}
	inSet := map[string]bool{}
	for _, n := range inlinable {
		if q.Func(n) == nil {
			return nil, fmt.Errorf("layout: PathInline: unknown inlinable function %q", n)
		}
		inSet[n] = true
	}
	ix := &inliner{prog: q, inSet: inSet}
	blocks, err := ix.expand(f, "", 0)
	if err != nil {
		return nil, err
	}
	f.Blocks = blocks
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("layout: PathInline produced invalid %s: %w", root, err)
	}
	return q, nil
}

type inliner struct {
	prog     *code.Program
	inSet    map[string]bool
	instance int
}

// expand returns the blocks of f with all inlinable calls expanded. prefix
// uniquifies labels of inlined instances; depth guards cycles.
func (ix *inliner) expand(f *code.Function, prefix string, depth int) ([]*code.Block, error) {
	if depth > 32 {
		return nil, fmt.Errorf("layout: PathInline: inlining depth exceeded in %s (recursive path?)", f.Name)
	}
	rename := func(l string) string {
		if prefix == "" {
			return l
		}
		return prefix + l
	}

	var out []*code.Block
	for _, b := range f.Blocks {
		cur := &code.Block{Label: rename(b.Label), Kind: b.Kind}
		flushTerm := func(t code.Term) {
			cur.Term = t
			out = append(out, cur)
		}
		contN := 0
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			// Drop prologue instructions of inlined bodies (the
			// caller's frame serves).
			if prefix != "" && in.Prologue {
				continue
			}
			if name := in.Call(); name != "" && ix.inSet[name] {
				if in.CallLoad {
					// Address load of an inlined call: gone.
					continue
				}
				// The jsr itself: splice the callee here.
				callee := ix.prog.Func(name)
				ix.instance++
				calleePrefix := fmt.Sprintf("%s%s$%d$", prefix, name, ix.instance)
				inlined, err := ix.expand(callee, calleePrefix, depth+1)
				if err != nil {
					return nil, err
				}
				contLabel := fmt.Sprintf("%s%s$cont%d", prefix, b.Label, contN)
				contN++
				// Current block falls into the callee entry.
				flushTerm(code.Term{Kind: code.TermJump, Then: inlined[0].Label})
				// Callee returns become jumps to the continuation.
				for _, cb := range inlined {
					if cb.Term.Kind == code.TermRet {
						cb.Term = code.Term{Kind: code.TermJump, Then: contLabel}
					}
					out = append(out, cb)
				}
				cur = &code.Block{Label: contLabel, Kind: b.Kind}
				continue
			}
			cur.Instrs = append(cur.Instrs, in)
		}
		// Terminator of the original block, with renamed targets. An
		// inlined body's Ret is rewritten by the caller above, so here
		// only the root's own Rets survive (prefix == "") — and for
		// inlined bodies expand() callers rewrite them post hoc.
		t := b.Term
		t.Then, t.Else = rename(t.Then), rename(t.Else)
		flushTerm(t)
	}
	return out, nil
}
