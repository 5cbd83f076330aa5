package verify_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/protocols/features"
	"repro/internal/verify"
	"repro/internal/verify/wfref"
)

// sameVerdicts holds Program and each of its passes to the map-based
// reference in wfref: the same *VerifyError (reason, function, block and
// detail) or nil from both. It holds the layout search's gate, Candidate,
// to the same reference, and otherwise to CheckClone against ref and then
// Cost under spec run one after another. It returns Program's verdict.
func sameVerdicts(t *testing.T, where string, ref, p *code.Program, spec verify.PathSpec, m arch.Machine) error {
	t.Helper()
	check := func(pass string, got, want error) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s gives %v, reference %v", where, pass, got, want)
		}
	}
	got := verify.Program(p, m)
	check("Program", got, wfref.Program(p, m))
	for i := 0; i < p.NumFuncs(); i++ {
		f := p.FuncAt(i)
		check("checkFunc("+f.Name+")", verify.CheckFunc(f), wfref.CheckFunc(f))
	}
	check("checkCallGraph", verify.CheckCallGraph(p), wfref.CheckCallGraph(p))
	check("checkPlacement", verify.CheckPlacement(p, m), wfref.CheckPlacement(p, m))

	rep, wf, eq := verify.Candidate(ref, p, verify.CostSpec{PathSpec: spec}, m)
	var wantRep *verify.CostReport
	wantWF, wantEq := got, error(nil)
	if got == nil {
		if wantEq = verify.CheckClone(ref, p, nil); wantEq == nil {
			wantRep, wantWF = verify.Cost(p, verify.CostSpec{PathSpec: spec}, m)
		}
	}
	check("Candidate's well-formedness", wf, wantWF)
	check("Candidate's equivalence", eq, wantEq)
	if !reflect.DeepEqual(rep, wantRep) {
		t.Fatalf("%s: Candidate reports %+v, Cost %+v", where, rep, wantRep)
	}
	return got
}

// replica clones p and lays the clone out exactly as p is laid out, so a
// corruption can be applied without touching an image core handed out.
func replica(t *testing.T, p *code.Program) *code.Program {
	t.Helper()
	q := p.Clone()
	for _, n := range p.Names() {
		var segs []code.Segment
		for _, s := range p.Placement(n).Segments {
			segs = append(segs, code.Segment{Addr: s.Addr, Labels: append([]string(nil), s.Labels...)})
		}
		if err := q.Place(n, segs); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.FinishLayout(); err != nil {
		t.Fatal(err)
	}
	return q
}

// corruption damages one function of a placed, linked image the way a
// buggy transform could, after Place ran.
type corruption struct {
	name  string
	apply func(p *code.Program, f *code.Function)
}

var corruptions = []corruption{
	{"append cold block", func(p *code.Program, f *code.Function) {
		f.Blocks = append(f.Blocks, &code.Block{Label: "late", Kind: code.BlockError, Term: code.Term{Kind: code.TermRet}})
	}},
	{"append mainline block", func(p *code.Program, f *code.Function) {
		f.Blocks = append(f.Blocks, &code.Block{Label: "late", Term: code.Term{Kind: code.TermRet}})
	}},
	{"drop last block", func(p *code.Program, f *code.Function) {
		f.Blocks = f.Blocks[: len(f.Blocks)-1 : len(f.Blocks)-1]
	}},
	{"drop entry block", func(p *code.Program, f *code.Function) {
		f.Blocks = f.Blocks[1:]
	}},
	{"relabel last block", func(p *code.Program, f *code.Function) {
		f.Blocks[len(f.Blocks)-1].Label = "renamed"
	}},
	{"relabel to a duplicate", func(p *code.Program, f *code.Function) {
		f.Blocks[len(f.Blocks)-1].Label = f.Blocks[0].Label
	}},
	{"dangling label", func(p *code.Program, f *code.Function) {
		for _, b := range f.Blocks {
			if b.Term.Kind != code.TermRet {
				b.Term.Then = "ghost"
				return
			}
		}
		f.Blocks[0].Term = code.Term{Kind: code.TermJump, Then: "ghost"}
	}},
	{"misaligned segment", func(p *code.Program, f *code.Function) {
		p.Placement(f.Name).Segments[0].Addr += 2
	}},
	{"swapped segment labels", func(p *code.Program, f *code.Function) {
		s := p.Placement(f.Name).Segments[0]
		s.Labels[0], s.Labels[len(s.Labels)-1] = s.Labels[len(s.Labels)-1], s.Labels[0]
	}},
	{"segments overlapping the next function", func(p *code.Program, f *code.Function) {
		placeAt(p, f, nextFunc(p, f), 0)
	}},
	{"segments overlapping the next function part-way", func(p *code.Program, f *code.Function) {
		placeAt(p, f, nextFunc(p, f), 8)
	}},
	{"call cycle", func(p *code.Program, f *code.Function) {
		retargetTo(p, f, f.Name, false)
	}},
	{"call cycle, relinked", func(p *code.Program, f *code.Function) {
		retargetTo(p, f, f.Name, true)
	}},
	{"unresolved call", func(p *code.Program, f *code.Function) {
		retargetTo(p, f, "ghost", false)
	}},
}

// nextFunc returns the function after f in link order, wrapping.
func nextFunc(p *code.Program, f *code.Function) *code.Function {
	for i := 0; i < p.NumFuncs(); i++ {
		if p.FuncAt(i) == f {
			return p.FuncAt((i + 1) % p.NumFuncs())
		}
	}
	panic("function not in program")
}

// placeAt re-places f as it is laid out, with every segment moved to
// start off bytes past g's first segment.
func placeAt(p *code.Program, f, g *code.Function, off uint64) {
	segs := append([]code.Segment(nil), p.Placement(f.Name).Segments...)
	base := segs[0].Addr
	to := p.Placement(g.Name).Segments[0].Addr + off
	for i := range segs {
		segs[i].Addr = segs[i].Addr - base + to
	}
	if err := p.Place(f.Name, segs); err != nil {
		panic(err)
	}
}

// retargetTo redirects every call of f to the named function, relinking
// the data layout afterwards when relink is set. SetCall interns the new
// callee at once, so both forms must give the same verdict.
func retargetTo(p *code.Program, f *code.Function, to string, relink bool) {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].IsCall() {
				b.Instrs[i].SetCall(to)
			}
		}
	}
	if relink {
		if err := p.LinkData(); err != nil {
			panic(err)
		}
	}
}

// TestWellFormednessMatchesReference holds the position-indexed
// well-formedness pass to the map-based reference in wfref on every
// version of both stacks on every machine of the matrix, then on seeded
// corruptions of one function at a time, every function in turn, of every
// dec3000 image: blocks appended, dropped and relabelled after Place,
// dangling labels, misaligned and reordered segments, overlapping
// placements, call cycles and unresolved calls. Each corruption hits a
// few functions of each image, drawn from a fixed seed. Every image also
// goes through Candidate, proved against the image it was corrupted from.
func TestWellFormednessMatchesReference(t *testing.T) {
	const perImage = 3
	feat := features.Improved()
	for _, model := range machines.Matrix() {
		for _, kind := range []core.StackKind{core.StackTCPIP, core.StackRPC} {
			for _, v := range core.Versions() {
				p, err := core.BuildProgram(kind, v, feat, core.Bipartite, model.Machine)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("%s/%v/%v", model.Name, kind, v)
				if err := sameVerdicts(t, where, p, p, core.LintSpec(kind, v), model.Machine); err != nil {
					t.Fatalf("%s: built image rejected: %v", where, err)
				}
			}
		}
	}

	m := arch.DEC3000_600()
	seed := &splitmix{state: 1}
	caught := make([]int, len(corruptions))
	cases := 0
	for _, kind := range []core.StackKind{core.StackTCPIP, core.StackRPC} {
		for _, v := range core.Versions() {
			built, err := core.BuildProgram(kind, v, feat, core.Bipartite, m)
			if err != nil {
				t.Fatal(err)
			}
			for ci, c := range corruptions {
				for k := 0; k < perImage; k++ {
					fi := int(seed.next() % uint64(built.NumFuncs()))
					p := replica(t, built)
					f := p.FuncAt(fi)
					c.apply(p, f)
					where := fmt.Sprintf("%v/%v %s in %s", kind, v, c.name, f.Name)
					if sameVerdicts(t, where, built, p, core.LintSpec(kind, v), m) != nil {
						caught[ci]++
					}
					cases++
				}
			}
		}
	}
	// Every kind of corruption must have been caught somewhere, or the
	// comparison above only ever compared two nils.
	for ci, c := range corruptions {
		if caught[ci] == 0 {
			t.Errorf("corruption %q never rejected over %d images", c.name, cases/len(corruptions))
		}
	}
}

// splitmix is a splitmix64 stream, the seeded choice of which functions
// to corrupt.
type splitmix struct{ state uint64 }

func (r *splitmix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}
