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
// machine of the matrix, and one instruction edit — and checks the three
// properties the search rests on:
//
//   - every placement mutate proposes passes placement, well-formedness
//     and the move-only equivalence proof (verify.CheckClone);
//   - the proof rejects the same image once one block's contents change
//     (an instruction appended, dropped or altered), wherever the edit
//     lands;
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
		if _, err := placeOrder(p, fx.spec, order, pads, m); err != nil {
			t.Fatalf("%s: placement rejected a mutate candidate: %v", where, err)
		}
		if err := verify.Program(p, m); err != nil {
			t.Fatalf("%s: well-formedness rejected a mutate candidate: %v", where, err)
		}
		if err := verify.CheckClone(fx.ref, p, nil); err != nil {
			t.Fatalf("%s: equivalence proof rejected a move-only candidate: %v", where, err)
		}
		got, err := verify.Cost(p, s.costSpec, m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := costref.Cost(p, s.costSpec, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Cost disagrees with the reference\n got  %+v\n want %+v", where, got, want)
		}

		// Edit one instruction of one block of the same image, re-place
		// it (the block's size may have changed), and require the proof
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
		}
		if _, err := placeOrder(p, fx.spec, order, pads, m); err != nil {
			t.Fatalf("%s: placement rejected the edited image: %v", where, err)
		}
		if err := verify.CheckClone(fx.ref, p, nil); err == nil {
			t.Fatalf("%s: equivalence proof accepted %s of an instruction in %s.%s",
				where, kind, fn.Name, blk.Label)
		}
	})
}

// editKind picks the instruction edit from the fuzzed input; a block with
// no instructions can only grow one.
func editKind(edit uint16, instrs int) string {
	if instrs == 0 {
		return "append"
	}
	return [...]string{"append", "drop", "alter"}[int(edit&0xf)%3]
}
