package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mtcmos/internal/simerr"
)

func TestWorkersDefaults(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-3); got != Workers(0) {
		t.Fatalf("Workers(-3) = %d, want %d", got, Workers(0))
	}
}

func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 33} {
		out, err := Map(nil, workers, 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapLowestIndexError(t *testing.T) {
	errA := errors.New("item 3 failed")
	errB := errors.New("item 7 failed")
	for _, workers := range []int{1, 4, 16} {
		var ran atomic.Int64
		_, err := Map(nil, workers, 64, func(i int) (int, error) {
			ran.Add(1)
			switch i {
			case 3:
				return 0, errA
			case 7:
				return 0, errB
			}
			return i, nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: err = %v, want lowest-index error %v", workers, err, errA)
		}
		// The pool must stop dispatching past the failure, so nothing
		// close to all 64 items should have run.
		if n := ran.Load(); n > int64(4+workers) {
			t.Errorf("workers=%d: %d items ran after early failure", workers, n)
		}
	}
}

func TestMapAllCollectsEverything(t *testing.T) {
	for _, workers := range []int{1, 8} {
		bad := errors.New("odd item")
		out, errs := MapAll(nil, workers, 20, func(i int) (string, error) {
			if i%2 == 1 {
				return "", fmt.Errorf("%d: %w", i, bad)
			}
			return fmt.Sprintf("ok%d", i), nil
		})
		for i := 0; i < 20; i++ {
			if i%2 == 1 {
				if !errors.Is(errs[i], bad) {
					t.Fatalf("workers=%d: errs[%d] = %v", workers, i, errs[i])
				}
				continue
			}
			if errs[i] != nil || out[i] != fmt.Sprintf("ok%d", i) {
				t.Fatalf("workers=%d: item %d = (%q, %v)", workers, i, out[i], errs[i])
			}
		}
	}
}

func TestMapCancellationClassified(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once atomic.Bool
	go func() {
		<-started
		cancel()
	}()
	_, err := Map(ctx, 2, 50, func(i int) (int, error) {
		if once.CompareAndSwap(false, true) {
			close(started)
		}
		<-ctx.Done()
		return 0, simerr.FromContext(ctx, "test")
	})
	if !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := Map(ctx, 4, 10, func(i int) (int, error) {
		t.Errorf("item %d ran under a cancelled context", i)
		return 0, nil
	})
	if !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if len(out) != 10 {
		t.Fatalf("len(out) = %d", len(out))
	}
}

func TestMapBudgetCause(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(simerr.New(simerr.ErrBudget, "test", "wall clock exhausted"))
	_, err := Map(ctx, 2, 4, func(i int) (int, error) { return i, nil })
	if !errors.Is(err, simerr.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestMapDeadlineBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, err := Map(ctx, 2, 4, func(i int) (int, error) { return i, nil })
	if !errors.Is(err, simerr.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

// TestMapPanicRecovered: a panicking item becomes a typed internal
// fault for that item; the pool, the other items, and the
// lowest-index error contract all survive.
func TestMapPanicRecovered(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out, err := Map(nil, workers, 16, func(i int) (int, error) {
			if i == 5 {
				panic("boom")
			}
			return i, nil
		})
		if !errors.Is(err, simerr.ErrInternal) {
			t.Fatalf("workers=%d: err = %v, want ErrInternal", workers, err)
		}
		if !strings.Contains(err.Error(), "item 5 panicked: boom") {
			t.Errorf("workers=%d: err message %q missing panic detail", workers, err)
		}
		for i := 0; i < 5; i++ {
			if out[i] != i {
				t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, out[i], i)
			}
		}
	}
	// MapAll: only the panicking items fail, everything else completes.
	out, errs := MapAll(nil, 4, 10, func(i int) (int, error) {
		if i%3 == 0 {
			panic(i)
		}
		return i * 2, nil
	})
	for i := 0; i < 10; i++ {
		if i%3 == 0 {
			if !errors.Is(errs[i], simerr.ErrInternal) {
				t.Errorf("errs[%d] = %v, want ErrInternal", i, errs[i])
			}
			continue
		}
		if errs[i] != nil || out[i] != i*2 {
			t.Errorf("item %d = (%d, %v)", i, out[i], errs[i])
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(nil, 8, 0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty map: (%v, %v)", out, err)
	}
}

// TestMapConcurrentStress exists to give the race detector something
// to chew on: many overlapping pools writing disjoint result slots.
func TestMapConcurrentStress(t *testing.T) {
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			out, err := Map(nil, 8, 200, func(i int) (int, error) { return i + 1, nil })
			if err == nil {
				for i, v := range out {
					if v != i+1 {
						err = fmt.Errorf("out[%d] = %d", i, v)
						break
					}
				}
			}
			done <- err
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
