package core

import (
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
)

// cancelAfterCtx is a context that starts returning context.Canceled after
// its Err method has been consulted `after` times — a deterministic way to
// cancel mid-run without wall-clock timing.
type cancelAfterCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *cancelAfterCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func smallCtxConfig() Config {
	cfg := DefaultConfig(StackTCPIP, ALL)
	cfg.Warmup, cfg.Measured, cfg.Samples = 2, 4, 3
	return cfg
}

// TestRunCtxPreCancelled: an already-cancelled context stops the run
// before any sample executes.
func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, smallCtxConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestRunCtxCancelMidway: cancellation between samples surfaces as
// context.Canceled rather than a partial result.
func TestRunCtxCancelMidway(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(1)
	ctx := &cancelAfterCtx{Context: context.Background(), after: 2}
	res, err := RunCtx(ctx, smallCtxConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx cancelled midway: err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled RunCtx returned a partial result")
	}
}

// TestRunCtxBackgroundIdentical: threading a background context changes
// nothing — the result is byte-identical to the plain entry point's.
func TestRunCtxBackgroundIdentical(t *testing.T) {
	cfg := smallCtxConfig()
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	ja, _ := json.Marshal(RunDoc(a))
	jb, _ := json.Marshal(RunDoc(b))
	if string(ja) != string(jb) {
		t.Fatal("RunCtx(Background) result differs from Run")
	}
}

// TestFaultStudyCtxPreCancelled: every ctx-threaded study entry point
// honors an already-cancelled context.
func TestFaultStudyCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultFaultStudy(StackTCPIP, 3)
	cfg.Quality = Quality{Warmup: 2, Measured: 6, Samples: 1}
	if _, err := FaultStudyCtx(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("FaultStudyCtx: err = %v, want context.Canceled", err)
	}
	if _, err := faultReport(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("faultReport: err = %v, want context.Canceled", err)
	}
	if _, err := RunVersionsCtx(ctx, StackTCPIP, cfg.Quality); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunVersionsCtx: err = %v, want context.Canceled", err)
	}
}

// TestForEachIndexedCtxCancel: cancellation mid-fan-out stops the
// remaining indices and reports the context error.
func TestForEachIndexedCtxCancel(t *testing.T) {
	ctx := &cancelAfterCtx{Context: context.Background(), after: 3}
	var ran atomic.Int64
	err := forEachIndexedCtx(ctx, 10, 4, func(i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("forEachIndexedCtx: err = %v, want context.Canceled", err)
	}
	if ran.Load() >= 10 {
		t.Fatalf("cancelled fan-out still ran all %d indices", ran.Load())
	}
}

// TestForEachIndexedCtxBackground: a background context leaves the
// fan-out's behavior untouched.
func TestForEachIndexedCtxBackground(t *testing.T) {
	var ran atomic.Int64
	if err := forEachIndexedCtx(context.Background(), 10, 4, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatalf("forEachIndexedCtx: %v", err)
	}
	if ran.Load() != 10 {
		t.Fatalf("ran %d of 10 indices", ran.Load())
	}
}

// TestCtxParallelism: a context-carried width caps the global setting but
// never raises it, and an uncapped context inherits the global.
func TestCtxParallelism(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(8)
	bg := context.Background()
	if got := CtxParallelism(bg); got != 8 {
		t.Fatalf("uncapped ctx width = %d, want 8", got)
	}
	if got := CtxParallelism(WithParallelism(bg, 2)); got != 2 {
		t.Fatalf("capped ctx width = %d, want 2", got)
	}
	if got := CtxParallelism(WithParallelism(bg, 32)); got != 8 {
		t.Fatalf("ctx cap above global = %d, want 8 (cap never raises)", got)
	}
	if got := CtxParallelism(WithParallelism(bg, 0)); got != 8 {
		t.Fatalf("zero cap = %d, want 8 (removes the cap)", got)
	}
}

// TestCtxParallelismIdenticalOutput: partitioned width changes scheduling
// only — a run under a 1-wide context is byte-identical to the global
// width.
func TestCtxParallelismIdenticalOutput(t *testing.T) {
	cfg := smallCtxConfig()
	wide, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("wide run: %v", err)
	}
	narrow, err := RunCtx(WithParallelism(context.Background(), 1), cfg)
	if err != nil {
		t.Fatalf("narrow run: %v", err)
	}
	wb, _ := json.Marshal(RunDoc(wide))
	nb, _ := json.Marshal(RunDoc(narrow))
	if string(wb) != string(nb) {
		t.Fatal("document differs between context widths")
	}
}
