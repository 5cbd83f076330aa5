package core

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/layout"
	"repro/internal/protocols/features"
	"repro/internal/verify"
)

// TestAllBuiltImagesVerify sweeps every image the experiment harness can
// build — both stacks, all six versions, all three clone strategies — and
// requires each to pass the static well-formedness pass. BuildProgram
// already runs the verifier internally; this test pins that property down
// explicitly so a future refactor cannot silently drop the wiring.
func TestAllBuiltImagesVerify(t *testing.T) {
	m := arch.DEC3000_600()
	feat := features.Improved()
	for _, kind := range []StackKind{StackTCPIP, StackRPC} {
		for _, v := range Versions() {
			for _, strat := range []CloneStrategy{Bipartite, MicroPosition, LinearLayout} {
				prog, err := BuildProgram(kind, v, feat, strat, m)
				if err != nil {
					t.Fatalf("%v/%v/%v: build: %v", kind, v, strat, err)
				}
				if err := verify.Program(prog, m); err != nil {
					t.Errorf("%v/%v/%v: verify: %v", kind, v, strat, err)
				}
			}
		}
	}
}

// TestPipelineStagesEquivalent proves, statically, that each layout
// transformation the harness applies preserves the program it rewrites:
// outlining only moves blocks, cloning only drops the licensed prologue and
// call-load instructions, and path-inlining's merged root observes the same
// instruction/branch/return sequence as the callee chain it replaced.
func TestPipelineStagesEquivalent(t *testing.T) {
	m := arch.DEC3000_600()
	feat := features.Improved()
	for _, kind := range []StackKind{StackTCPIP, StackRPC} {
		fns, spec := stackModels(kind, feat)
		base := code.NewProgram()
		if err := base.Add(fns...); err != nil {
			t.Fatal(err)
		}

		out := layout.Outline(base)
		if err := verify.CheckOutline(base, out); err != nil {
			t.Errorf("%v: outline not move-only: %v", kind, err)
		}

		clo, err := layout.Bipartite(out, spec, m, layout.DefaultCloneBase)
		if err != nil {
			t.Fatal(err)
		}
		specialized := append(append([]string(nil), spec.Path...), spec.Library...)
		if err := verify.CheckClone(out, clo, specialized); err != nil {
			t.Errorf("%v: clone drops more than licensed: %v", kind, err)
		}

		root, inlinable := inlineSpec(kind)
		pi, err := layout.PathInline(out, root, inlinable)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.CheckInline(out, pi, root, inlinable); err != nil {
			t.Errorf("%v: inlined root not path-equivalent: %v", kind, err)
		}
	}
}

// TestSabotagedImageRejected corrupts a freshly built image the way a layout
// bug would — growing a block after its placement was fixed — and requires
// the verifier to reject it with the typed reason, before any simulation
// could run on the corrupt image.
func TestSabotagedImageRejected(t *testing.T) {
	m := arch.DEC3000_600()
	prog, err := buildProgramUnverified(StackTCPIP, STD, features.Improved(), Bipartite, m)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("tcp_input")
	if f == nil {
		t.Fatal("tcp_input missing from image")
	}
	f.Blocks[0].Instrs = append(f.Blocks[0].Instrs, code.Instr{Op: arch.OpALU})
	err = verify.Program(prog, m)
	var ve *verify.VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("corrupt image not rejected with a VerifyError: %v", err)
	}
	if ve.Reason != verify.ReasonSegmentEscape {
		t.Errorf("reason = %v, want %v", ve.Reason, verify.ReasonSegmentEscape)
	}
}

// TestLintAgreesWithMeasuredConflicts cross-checks the static layout lint
// against the dynamic simulator's per-set miss attribution. The lint walks
// placed addresses only; the profile counts real replacement misses. The
// two must agree on the story the paper tells: BAD thrashes hardest, STD is
// conflict-prone, outlining helps, and the bipartite layouts are clean —
// and for the conflict-heavy layouts the sets the lint names must be where
// the measured replacement misses actually land.
func TestLintAgreesWithMeasuredConflicts(t *testing.T) {
	cells, err := LintStudy(StackTCPIP)
	if err != nil {
		t.Fatal(err)
	}
	pred := map[Version]*verify.Report{}
	for _, c := range cells {
		pred[c.Version] = c.Report
	}

	results, err := RunVersionsProfiled(StackTCPIP, Quick)
	if err != nil {
		t.Fatal(err)
	}
	observed := map[Version]uint64{}
	obsSets := map[Version]map[int]uint64{}
	for v, res := range results {
		sets := map[int]uint64{}
		for s, ss := range res.First().Profile.Sets {
			if ss.ReplMisses > 0 {
				sets[s] = ss.ReplMisses
				observed[v] += ss.ReplMisses
			}
		}
		obsSets[v] = sets
	}

	// Both orderings must agree: BAD worst, then STD, then OUT, with the
	// bipartite CLO at the bottom.
	order := []Version{BAD, STD, OUT, CLO}
	for i := 1; i < len(order); i++ {
		hi, lo := order[i-1], order[i]
		if pred[hi].PredictedRepl <= pred[lo].PredictedRepl {
			t.Errorf("lint ranks %v (%d) not above %v (%d)",
				hi, pred[hi].PredictedRepl, lo, pred[lo].PredictedRepl)
		}
		if observed[hi] <= observed[lo] && !(observed[hi] == 0 && observed[lo] == 0) {
			t.Errorf("measured repl ranks %v (%d) not above %v (%d)",
				hi, observed[hi], lo, observed[lo])
		}
	}

	// A clean lint verdict must correspond to a clean measurement: the
	// bipartite layouts predict zero conflicts and the simulator agrees to
	// within a couple of stray cross-round-trip misses.
	for _, v := range []Version{CLO, ALL} {
		if pred[v].PredictedRepl != 0 {
			t.Errorf("%v: bipartite layout predicts %d repl misses, want 0", v, pred[v].PredictedRepl)
		}
		if observed[v] > 4 {
			t.Errorf("%v: lint predicts clean but simulator measured %d repl misses", v, observed[v])
		}
	}

	// For the conflict-heavy layouts, most measured replacement misses must
	// land in sets the lint named. The lint over-approximates the executed
	// path, so it may name extra sets; what it must not do is miss where
	// the damage actually happens.
	for _, v := range []Version{BAD, STD} {
		named := map[int]bool{}
		for _, cf := range pred[v].Conflicts {
			named[cf.Set] = true
		}
		var covered, total uint64
		for s, n := range obsSets[v] {
			total += n
			if named[s] {
				covered += n
			}
		}
		if total == 0 {
			t.Errorf("%v: expected measured replacement misses, got none", v)
			continue
		}
		if 2*covered < total {
			t.Errorf("%v: lint-named sets cover only %d of %d measured repl misses", v, covered, total)
		}
	}
}
