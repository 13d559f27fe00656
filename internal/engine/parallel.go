package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// workers returns the effective worker count for n node-local tasks: the
// appliance's Parallelism knob (0 = GOMAXPROCS, 1 = strictly serial),
// never more than the task count.
func (a *Appliance) workers(n int) int {
	p := a.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// parallelFor runs fn(ctx, i) for every i in [0, n) on up to w worker
// goroutines. Errors are collected per index; the first failure cancels
// the derived context so unstarted tasks are skipped. With w <= 1 the
// loop degenerates to a plain serial for-loop (no goroutines), which is
// the reference path the differential harness compares against.
//
// The returned error is the lowest-index failure among tasks that ran,
// matching what the serial loop would have reported when every task runs.
// When no task failed but the parent context ended, unstarted indices
// were skipped, so the parent's error is returned: parallelFor never
// reports success for work it did not do.
func parallelFor(ctx context.Context, n, w int, fn func(ctx context.Context, i int) error) error {
	if n == 0 {
		return nil
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next int64 = -1
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if ctx.Err() != nil {
					continue // cancelled: drain remaining indices
				}
				if err := fn(ctx, i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// sleepCtx waits for d unless the context ends first, returning the
// context's error in that case. It backs retry backoff and slow faults,
// so a step timeout or caller cancel cuts both short.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// simulateLatency models the control-node → compute-node dispatch round
// trip of one step (network hop + remote statement setup). It returns
// early if the step was cancelled by another node's failure.
func simulateLatency(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
