// Package sched is the toolkit's worker-pool executor for
// embarrassingly parallel simulation fan-outs: per-transition delay
// runs, per-vector and per-W/L sweeps, and search restarts.
//
// The contract is deliberately strict so that parallel sweeps stay
// byte-identical to their serial counterparts:
//
//   - Results are returned in item order, never completion order.
//   - Map fails with the error of the LOWEST-indexed failing item and
//     stops dispatching work past it, exactly as a serial loop with an
//     early return would. Items already in flight are drained.
//   - MapAll runs every item and reports per-item errors, for callers
//     with a tolerate-and-degrade policy (sizing.delaysTolerant).
//   - Context cancellation is classified by simerr.FromContext, the
//     rule the engines use too: undispatched items fail with
//     simerr.ErrBudget on a deadline or a budget cause, and with
//     simerr.ErrCancelled otherwise.
//   - A panic inside an item is recovered into a typed
//     simerr.ErrInternal result for that item instead of tearing the
//     whole process down; the lowest-index error contract is
//     unchanged.
//
// workers <= 0 means one worker per available CPU
// (runtime.GOMAXPROCS(0), so `go test -cpu` modulates the pool);
// workers == 1 runs inline on the calling goroutine with no pool at
// all, making `-j 1` a true serial baseline.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mtcmos/internal/simerr"
)

// Workers resolves a worker-count setting: values >= 1 are taken as
// given, anything else defaults to one worker per available CPU.
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(0..n-1) on a pool of workers and returns the results in
// index order. On failure it returns the partial results plus the
// error of the lowest-indexed failing item (later items may be left as
// zero values), matching a serial loop that returns on first error.
// A nil ctx is treated as context.Background().
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errAt, stop := run(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	}, true)
	if stop >= 0 {
		return out, errAt[stop]
	}
	return out, nil
}

// MapAll runs fn for every item regardless of individual failures and
// returns index-ordered results alongside a per-item error slice
// (errs[i] != nil iff item i failed). Cancellation still short-cuts:
// items not yet dispatched when ctx fires fail with the classified
// cancellation error instead of running.
func MapAll[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, []error) {
	out := make([]T, n)
	errAt, _ := run(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	}, false)
	return out, errAt
}

// run is the shared driver. It dispatches indices in increasing order,
// records per-item errors in the returned slice, and — when firstErr
// is set — stops handing out indices beyond the lowest failed one.
// The second return is the lowest failed index, or -1.
func run(ctx context.Context, workers, n int, fn func(i int) error, firstErr bool) ([]error, int) {
	errAt := make([]error, n)
	if n == 0 {
		return errAt, -1
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}

	// minFail tracks the lowest failing index seen so far; n means
	// "none yet". Serial fast path: no goroutines, no atomics.
	var minFail atomic.Int64
	minFail.Store(int64(n))
	record := func(i int, err error) {
		errAt[i] = err
		for {
			cur := minFail.Load()
			if int64(i) >= cur || minFail.CompareAndSwap(cur, int64(i)) {
				return
			}
		}
	}
	step := func(i int) {
		if err := simerr.FromContext(ctx, "sched"); err != nil {
			err.Msg = "sweep stopped before the item ran: " + err.Msg
			record(i, err)
			return
		}
		// A panicking item must not take down the pool or the process:
		// it becomes a typed per-item internal fault.
		defer func() {
			if r := recover(); r != nil {
				record(i, simerr.New(simerr.ErrInternal, "sched",
					fmt.Sprintf("item %d panicked: %v", i, r)))
			}
		}()
		if err := fn(i); err != nil {
			record(i, err)
		}
	}

	if workers == 1 {
		for i := 0; i < n; i++ {
			if firstErr && minFail.Load() < int64(n) {
				break
			}
			step(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= n {
						return
					}
					// Stop claiming work past a known failure: a serial
					// loop would never have reached those items.
					if firstErr && int64(i) > minFail.Load() {
						return
					}
					step(i)
				}
			}()
		}
		wg.Wait()
	}

	if first := int(minFail.Load()); first < n {
		// In-flight higher-indexed items may have finished (or failed)
		// after the lowest failure; the serial contract is that they
		// never ran, so their results are kept but only the lowest
		// error is surfaced by Map.
		return errAt, first
	}
	return errAt, -1
}
