package code_test

import (
	"reflect"
	"testing"

	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/trace"
)

// engineRun is everything one configuration's run shows of the engine:
// the result (metrics, per-roundtrip cache statistics, the coverage the
// Table-9 observer counts, the obs.Collector per-function rollups) and
// the entry stream of one traced path invocation.
type engineRun struct {
	res   *core.Result
	trace *trace.Trace
}

func runEngine(t *testing.T, cfg core.Config) engineRun {
	t.Helper()
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr, err := core.RecordTrace(cfg)
	if err != nil {
		t.Fatalf("RecordTrace: %v", err)
	}
	return engineRun{res, tr}
}

// TestCompiledEngineMatchesReference runs every version of both stacks on
// every machine of the matrix twice, once through the compiled engine and
// once through the per-instruction reference engine, and requires the two
// to agree on every number and every observed entry.
func TestCompiledEngineMatchesReference(t *testing.T) {
	for _, model := range machines.Matrix() {
		for _, kind := range []core.StackKind{core.StackTCPIP, core.StackRPC} {
			for _, v := range core.Versions() {
				cfg := core.DefaultConfig(kind, v)
				cfg.Machine = model.Machine
				cfg.Warmup, cfg.Measured, cfg.Samples = 4, 4, 1
				cfg.Profile = true
				got := runEngine(t, cfg)
				restore := code.UseReferenceEngine()
				want := runEngine(t, cfg)
				restore()
				where := model.Name + "/" + kind.String() + "/" + v.String()
				if !reflect.DeepEqual(got.res, want.res) {
					t.Errorf("%s: result differs from the reference engine:\n got %+v\nwant %+v",
						where, got.res.Samples, want.res.Samples)
				}
				if !reflect.DeepEqual(got.trace.Entries, want.trace.Entries) {
					t.Errorf("%s: traced entry stream differs from the reference engine (%d vs %d entries)",
						where, got.trace.Len(), want.trace.Len())
				}
				if got.res.First().Profile == nil {
					t.Fatalf("%s: no profile recorded", where)
				}
			}
		}
	}
}
