package optimize

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/machines"
	"repro/internal/verify"
	"repro/internal/verify/costref"
)

// FuzzMoveOnlyMutation drives the search's proposal stream from fuzzed
// inputs — a seed and length for the mutate walk from the greedy order, a
// machine of the matrix, and one instruction edit — and checks the
// properties the search rests on:
//
//   - every placement mutate proposes passes placement, well-formedness
//     and the move-only equivalence proof (verify.CheckClone);
//   - the gate the search calls (verify.Candidate) gives exactly the
//     verdict and report of verify.Program, CheckClone and Cost run one
//     after another, before and after the edit;
//   - the proof rejects the same image once one block's contents change
//     (an instruction appended, dropped or altered), wherever the edit
//     lands, and the gate rejects a call inserted into it: a call to a
//     function that calls nothing at the proof, a call that closes a
//     call cycle at the well-formedness pass;
//   - the dense cost engine agrees with the map-based reference replay
//     field for field.
//
// Plain `go test` replays the seed corpus in testdata/fuzz; `make fuzz`
// searches for new inputs.
func FuzzMoveOnlyMutation(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(0))
	f.Add(uint64(2), uint8(40), uint8(3), uint16(0x1234))
	f.Add(uint64(0x9e3779b97f4a7c15), uint8(255), uint8(10), uint16(0xffff))
	fx := newSearchFixture(f, 0)
	models := machines.Matrix()
	names := fx.ref.Names()
	// The functions that call nothing, and each function's callers.
	var leaves []string
	callers := map[string][]string{}
	for _, n := range names {
		callees := fx.ref.Func(n).Callees()
		if len(callees) == 0 {
			leaves = append(leaves, n)
		}
		for _, c := range callees {
			callers[c] = append(callers[c], n)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, steps uint8, model uint8, edit uint16) {
		mdl := models[int(model)%len(models)]
		m := mdl.Machine
		s := fx.searcher(t, mdl)
		r := &rng{state: seed}
		order := greedyOrder(fx.ref, fx.spec, fx.weights)
		pads := make([]int, len(order))
		for i := 0; i < int(steps); i++ {
			order, pads = mutate(r, order, pads)
		}
		where := mdl.Name + " " + candKey(order, pads)

		p := s.work
		if _, err := s.placer.place(p, order, pads); err != nil {
			t.Fatalf("%s: placement rejected a mutate candidate: %v", where, err)
		}
		got, wf, eq := sameGate(t, where, s, p)
		if wf != nil {
			t.Fatalf("%s: well-formedness rejected a mutate candidate: %v", where, wf)
		}
		if eq != nil {
			t.Fatalf("%s: equivalence proof rejected a move-only candidate: %v", where, eq)
		}
		want, err := costref.Cost(p, s.costSpec, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Cost disagrees with the reference\n got  %+v\n want %+v", where, got, want)
		}

		// Edit one instruction of one block of the same image, re-place
		// it (the block's size may have changed), and require the gate
		// to notice.
		fn := p.Func(names[int(edit)%len(names)])
		blk := fn.Blocks[int(edit>>4)%len(fn.Blocks)]
		kind := editKind(edit, len(blk.Instrs))
		switch kind {
		case "append":
			blk.Instrs = append(blk.Instrs, code.Instr{Op: arch.OpNop})
		case "drop":
			i := int(edit>>8) % len(blk.Instrs)
			blk.Instrs = append(blk.Instrs[:i:i], blk.Instrs[i+1:]...)
		case "alter":
			blk.Instrs[int(edit>>8)%len(blk.Instrs)].Off += 8
		case "call", "cycle":
			callee := fn.Name // a call to itself closes a cycle
			if kind == "call" {
				callee = pick(leaves, fn.Name, int(edit>>8))
			} else if cs := callers[fn.Name]; len(cs) > 0 {
				callee = cs[int(edit>>8)%len(cs)]
			}
			i := int(edit>>8) % (len(blk.Instrs) + 1)
			call := code.Instr{Op: arch.OpJump}.WithCall(callee)
			blk.Instrs = append(blk.Instrs[:i:i], append([]code.Instr{call}, blk.Instrs[i:]...)...)
			kind += " to " + callee
		}
		if _, err := s.placer.place(p, order, pads); err != nil {
			t.Fatalf("%s: placement rejected the edited image: %v", where, err)
		}
		what := kind + " in " + fn.Name + "." + blk.Label
		_, wf, eq = sameGate(t, where+" after "+what, s, p)
		switch {
		case editKind(edit, 1) == "cycle":
			if ve, ok := wf.(*verify.VerifyError); !ok || ve.Reason != verify.ReasonRecursion {
				t.Fatalf("%s: the gate gave %v, %v for %s, want a recursion error", where, wf, eq, what)
			}
		case editKind(edit, 1) == "call":
			if wf != nil || eq == nil {
				t.Fatalf("%s: the gate gave %v, %v for %s, want an equivalence error only", where, wf, eq, what)
			}
		default:
			if err := verify.CheckClone(fx.ref, p, nil); err == nil {
				t.Fatalf("%s: equivalence proof accepted %s", where, what)
			}
		}
	})
}

// sameGate runs the search's gate (verify.Candidate) over the placed
// image p and requires the verdict and the report that Program,
// CheckClone and Cost give when run one after another, which it returns.
func sameGate(t *testing.T, where string, s *searcher, p *code.Program) (*verify.CostReport, error, error) {
	t.Helper()
	m := s.model.Machine
	var wantRep *verify.CostReport
	wantWF := verify.Program(p, m)
	var wantEq error
	if wantWF == nil {
		if wantEq = verify.CheckClone(s.ref, p, nil); wantEq == nil {
			wantRep, wantWF = verify.Cost(p, s.costSpec, m)
		}
	}
	rep, wf, eq := verify.Candidate(s.ref, p, s.costSpec, m)
	if !reflect.DeepEqual(wf, wantWF) || !reflect.DeepEqual(eq, wantEq) {
		t.Fatalf("%s: the gate gave (%v, %v), the checks in sequence (%v, %v)", where, wf, eq, wantWF, wantEq)
	}
	if !reflect.DeepEqual(rep, wantRep) {
		t.Fatalf("%s: the gate reports\n %+v\nthe checks in sequence\n %+v", where, rep, wantRep)
	}
	return rep, wf, eq
}

// editKind picks the instruction edit from the fuzzed input: 12 and 13
// in the low nibble insert a call, the others append, drop or alter an
// instruction; a block with no instructions can only grow one.
func editKind(edit uint16, instrs int) string {
	switch edit & 0xf {
	case 12:
		return "call"
	case 13:
		return "cycle"
	}
	if instrs == 0 {
		return "append"
	}
	return [...]string{"append", "drop", "alter"}[int(edit&0xf)%3]
}

// pick returns the i-th name of names, counted cyclically, skipping not.
func pick(names []string, not string, i int) string {
	for k := 0; k < len(names); k++ {
		if n := names[(i+k)%len(names)]; n != not {
			return n
		}
	}
	panic("no name to pick")
}
