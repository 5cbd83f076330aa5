package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Samples of a run and the version×stack cells of the table generators are
// fully independent: each gets its own event queue, hosts, caches and
// environments, and the linked programs they share are immutable after
// BuildProgram returns (see TestProgramsImmutableAcrossRuns). This file
// provides the bounded worker pool that exploits that independence while
// keeping output bit-for-bit identical to serial execution: work items are
// indexed, results land in their index slot, and the reported error is the
// lowest-index failure — exactly what a serial loop would surface first.

// configuredParallelism is the pool width override; 0 selects GOMAXPROCS.
var configuredParallelism atomic.Int32

// SetParallelism bounds the worker pools used by Run and the table
// generators to n; n <= 0 restores the default (GOMAXPROCS). Results are
// identical at any setting.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	configuredParallelism.Store(int32(n))
}

// Parallelism reports the current worker-pool width.
func Parallelism() int {
	if n := configuredParallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// parallelismKey carries a per-context pool-width cap (see WithParallelism).
type parallelismKey struct{}

// WithParallelism returns a context whose fan-outs are capped at n workers,
// overriding the process-wide Parallelism for work derived from ctx. The
// serve daemon uses this to partition the shared sample pool across
// concurrent jobs: each job's context carries its share, so total goroutines
// stay bounded while every driver keeps its identical-at-any-width output
// guarantee. n <= 0 removes the cap.
func WithParallelism(ctx context.Context, n int) context.Context {
	if n <= 0 {
		n = 0
	}
	return context.WithValue(ctx, parallelismKey{}, n)
}

// CtxParallelism reports the worker-pool width for work derived from ctx:
// the process-wide Parallelism, further capped by any WithParallelism value
// on the context. Drivers that fan out under a context use this instead of
// Parallelism so per-job partitioning composes with the global setting.
func CtxParallelism(ctx context.Context) int {
	p := Parallelism()
	if n, ok := ctx.Value(parallelismKey{}).(int); ok && n > 0 && n < p {
		return n
	}
	return p
}

// forEachIndexed runs fn(0) .. fn(n-1) on a pool of at most workers
// goroutines and returns the lowest-index error.
func forEachIndexed(n, workers int, fn func(int) error) error {
	return forEachIndexedCtx(context.Background(), n, workers, fn)
}

// forEachIndexedCtx runs fn(0) .. fn(n-1) on a pool of at most workers
// goroutines and returns the lowest-index error. With workers <= 1 it
// degenerates to the plain serial loop (stopping at the first error, whose
// identity matches what the parallel path reports). ctx is checked before
// each item: once it is cancelled no further fn calls start, and the
// context's error occupies every unrun slot.
func forEachIndexedCtx(ctx context.Context, n, workers int, fn func(int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
