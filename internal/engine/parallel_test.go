package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersKnob(t *testing.T) {
	a := &Appliance{}
	cases := []struct {
		parallelism, tasks, want int
	}{
		{0, 100, runtime.GOMAXPROCS(0)}, // default: bounded by GOMAXPROCS
		{1, 100, 1},                     // serial reference path
		{4, 100, 4},                     // explicit cap
		{8, 3, 3},                       // never more workers than tasks
		{-2, 1, 1},                      // nonsense clamps to 1
	}
	for _, c := range cases {
		a.Parallelism = c.parallelism
		if got := a.workers(c.tasks); got != c.want {
			t.Errorf("workers(%d) with Parallelism=%d: got %d, want %d",
				c.tasks, c.parallelism, got, c.want)
		}
	}
}

func TestParallelForVisitsEveryIndex(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		const n = 100
		var hits [n]int32
		err := parallelFor(context.Background(), n, w, func(_ context.Context, i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("w=%d: index %d visited %d times", w, i, h)
			}
		}
	}
}

func TestParallelForReturnsLowestIndexError(t *testing.T) {
	// Several indices fail; the reported error must be the lowest-index
	// one among those that actually ran, whatever the worker schedule.
	for _, w := range []int{1, 3, 8} {
		err := parallelFor(context.Background(), 16, w, func(_ context.Context, i int) error {
			if i%5 == 3 { // 3, 8, 13
				return fmt.Errorf("node %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("w=%d: expected an error", w)
		}
		if got := err.Error(); got != "node 3 failed" {
			t.Errorf("w=%d: got %q, want the lowest-index failure", w, got)
		}
	}
}

func TestParallelForCancelsOnFirstFailure(t *testing.T) {
	// With 2 workers and a failure on index 0, late indices must be
	// skipped once the context is cancelled, not executed.
	var ran int32
	boom := errors.New("boom")
	err := parallelFor(context.Background(), 64, 2, func(ctx context.Context, i int) error {
		if i == 0 {
			return boom
		}
		// Give cancellation time to propagate before counting.
		simulateLatency(ctx, 2*time.Millisecond)
		if ctx.Err() != nil {
			return nil
		}
		atomic.AddInt32(&ran, 1)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if got := atomic.LoadInt32(&ran); got > 8 {
		t.Errorf("%d tasks ran to completion after the failure; cancellation is not propagating", got)
	}
}

func TestParallelForHonorsParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := parallelFor(ctx, 10, 1, func(context.Context, int) error {
		calls++
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Errorf("%d tasks ran under a cancelled parent context", calls)
	}
}

// TestParallelForCancelledParentProperty cancels the parent context from
// inside a random task, with random task failures, at every worker count.
// Whatever the schedule: a run that skipped an index never reports
// success, and when some task that ran failed, the lowest-index such
// failure is the one reported.
func TestParallelForCancelledParentProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{1, 2, 4} {
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(32)
			cancelAt := rng.Intn(n)
			failing := map[int]bool{}
			for i := 0; i < n; i++ {
				if rng.Intn(8) == 0 {
					failing[i] = true
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			ran := make([]int32, n)
			err := parallelFor(ctx, n, w, func(_ context.Context, i int) error {
				atomic.StoreInt32(&ran[i], 1)
				if i == cancelAt {
					cancel()
				}
				if failing[i] {
					return fmt.Errorf("task %d failed", i)
				}
				return nil
			})
			cancel()
			skipped, firstFail := false, -1
			for i := range ran {
				switch {
				case ran[i] == 0:
					skipped = true
				case failing[i] && firstFail < 0:
					firstFail = i
				}
			}
			switch {
			case firstFail >= 0:
				if want := fmt.Sprintf("task %d failed", firstFail); err == nil || err.Error() != want {
					t.Fatalf("w=%d trial %d: got %v, want %q", w, trial, err, want)
				}
			case skipped:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("w=%d trial %d: skipped an index but returned %v", w, trial, err)
				}
			}
		}
	}
}

// TestMetricsSnapshotRace hammers the appliance from concurrent readers
// while parallel executions append step metrics. Run under -race this
// certifies the Metrics accessors: unlocked reads of the step slice from
// experiment harnesses used to race with Execute.
func TestMetricsSnapshotRace(t *testing.T) {
	a, _ := buildAppliance(t, 4)
	a.Parallelism = 4
	plan := planFor(t, a, `SELECT c_name, o_totalprice FROM customer, orders
	                       WHERE c_custkey = o_custkey AND o_totalprice > 1000`)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = a.Metrics.StepCount()
			_ = a.Metrics.TotalBytesMoved()
			for _, s := range a.Metrics.Snapshot() {
				_ = s.Rows
			}
		}
	}()
	for i := 0; i < 10; i++ {
		if _, err := a.Execute(plan); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if got := a.Metrics.StepCount(); got == 0 {
		t.Error("no step metrics recorded")
	}
	snap := a.Metrics.Snapshot()
	snap[0].Rows = -1 // the snapshot must be a copy, not an alias
	if a.Metrics.Snapshot()[0].Rows == -1 {
		t.Error("Snapshot aliases the live metrics slice")
	}
}

// TestParallelExecutionMatchesSerial is the engine-level miniature of the
// internal/difftest sweep: same plan, same appliance, serial vs parallel
// fan-out, identical rows in identical order.
func TestParallelExecutionMatchesSerial(t *testing.T) {
	a, _ := buildAppliance(t, 8)
	plan := planFor(t, a, `SELECT c_mktsegment, COUNT(*) AS cnt, SUM(o_totalprice) AS s
	                       FROM customer, orders WHERE c_custkey = o_custkey
	                       GROUP BY c_mktsegment`)
	a.Parallelism = 1
	serial, err := a.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		a.Parallelism = par
		got, err := a.Execute(plan)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(got.Rows) != len(serial.Rows) {
			t.Fatalf("parallelism %d: %d rows, serial produced %d", par, len(got.Rows), len(serial.Rows))
		}
		for i := range got.Rows {
			for j := range got.Rows[i] {
				if got.Rows[i][j] != serial.Rows[i][j] {
					t.Fatalf("parallelism %d: row %d col %d: %v != %v",
						par, i, j, got.Rows[i][j], serial.Rows[i][j])
				}
			}
		}
	}
}
