package core

import (
	"reflect"
	"testing"

	"repro/internal/protocols/features"
)

// studyFeatureSets are the feature sets the studies build images under:
// the improved stack, the original one (Table 2), and the improved stack
// with each improvement turned off in turn (Table 1's rows).
func studyFeatureSets() []features.Set {
	sets := []features.Set{features.Improved(), features.Original()}
	for _, off := range []func(*features.Set){
		func(f *features.Set) { f.WordSizedTCPState = false },
		func(f *features.Set) { f.RefreshShortCircuit = false },
		func(f *features.Set) { f.UseUSC = false },
		func(f *features.Set) { f.InlinedMapCacheTest = false },
		func(f *features.Set) { f.MiscInlining = false },
		func(f *features.Set) { f.AvoidDivision = false },
		func(f *features.Set) { f.Continuations = false },
	} {
		f := features.Improved()
		off(&f)
		sets = append(sets, f)
	}
	return sets
}

// TestStackSpecMatchesModels: the name-only spec is the spec stackModels
// returns beside the functions, for both stacks under every feature set
// the studies use, and every name in it is a function the models build.
// The two can never drift apart.
func TestStackSpecMatchesModels(t *testing.T) {
	for _, kind := range []StackKind{StackTCPIP, StackRPC} {
		for _, feat := range studyFeatureSets() {
			fns, spec := stackModels(kind, feat)
			if got := stackSpec(kind); !reflect.DeepEqual(got, spec) {
				t.Fatalf("%v %+v: stackSpec = %+v, stackModels spec = %+v", kind, feat, got, spec)
			}
			built := map[string]bool{}
			for _, f := range fns {
				built[f.Name] = true
			}
			for _, n := range append(append([]string(nil), spec.Path...), spec.Library...) {
				if !built[n] {
					t.Errorf("%v %+v: spec names %q, which the models do not build", kind, feat, n)
				}
			}
		}
	}
}

// TestSpecLookupsBuildNoModels pins the per-run and per-lint spec lookups
// at a handful of allocations. Building the model library instead costs
// thousands, so a regression that rebuilds the models to read their names
// fails here.
func TestSpecLookupsBuildNoModels(t *testing.T) {
	const limit = 8
	for _, kind := range []StackKind{StackTCPIP, StackRPC} {
		for _, v := range Versions() {
			if a := testing.AllocsPerRun(20, func() { LintSpec(kind, v) }); a > limit {
				t.Errorf("LintSpec(%v, %v) allocates %.0f objects, want <= %d", kind, v, a, limit)
			}
			cfg := DefaultConfig(kind, v)
			want := staticPathInstrs(cfg) // warms the program cache
			if want == 0 {
				t.Fatalf("%v/%v: staticPathInstrs = 0", kind, v)
			}
			if a := testing.AllocsPerRun(20, func() { staticPathInstrs(cfg) }); a > limit {
				t.Errorf("staticPathInstrs(%v/%v) allocates %.0f objects, want <= %d", kind, v, a, limit)
			}
		}
	}
}
