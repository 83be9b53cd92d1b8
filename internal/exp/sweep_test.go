package exp

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestEachYieldsInIndexOrder runs points that finish in reverse order
// and checks every worker count hands them back in index order.
func TestEachYieldsInIndexOrder(t *testing.T) {
	const n = 24
	for _, workers := range []int{1, 2, 8} {
		var got []int
		Each(context.Background(), workers, n, func(i int) (int, error) {
			time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
			return i * i, nil
		}, func(i, v int, err error) bool {
			if err != nil || v != i*i {
				t.Errorf("workers=%d: point %d yielded (%d, %v)", workers, i, v, err)
			}
			got = append(got, i)
			return true
		})
		if len(got) != n {
			t.Fatalf("workers=%d: %d of %d points yielded", workers, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: yield order %v", workers, got)
			}
		}
	}
}

// TestEachStopRunsNoUnstartedPoint stops the sweep at point 0 while
// every worker is parked inside a later point: those may finish, but
// no further point may start.
func TestEachStopRunsNoUnstartedPoint(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, 8} {
		var (
			mu      sync.Mutex
			started []int
		)
		release := make(chan struct{})
		yields := 0
		Each(context.Background(), workers, n, func(i int) (int, error) {
			mu.Lock()
			started = append(started, i)
			mu.Unlock()
			if i > 0 {
				<-release
			}
			return i, nil
		}, func(i, _ int, _ error) bool {
			yields++
			// Let the parked points go only after the stop, so none of
			// their workers can take another index before it.
			time.AfterFunc(50*time.Millisecond, func() { close(release) })
			return false
		})
		if yields != 1 {
			t.Errorf("workers=%d: yield called %d times after returning false", workers, yields)
		}
		// Serially only point 0 runs. In parallel the workers took
		// points 0..workers-1, and point 0's worker at most one more.
		limit := workers + 1
		if workers == 1 {
			limit = 1
		}
		if len(started) > limit {
			t.Errorf("workers=%d: %d points started after a stop at point 0: %v", workers, len(started), started)
		}
		for _, i := range started {
			if i > workers {
				t.Errorf("workers=%d: point %d started, beyond any index handed out before the stop", workers, i)
			}
		}
	}
}

// TestEachCanceledContext checks a canceled context yields its error for
// every point without running any of them, and that all returns it.
func TestEachCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 8} {
		ran := false
		yields := 0
		Each(ctx, workers, 10, func(int) (int, error) {
			ran = true
			return 0, nil
		}, func(_, _ int, err error) bool {
			yields++
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d: yielded %v, want context.Canceled", workers, err)
			}
			return true
		})
		if ran || yields != 10 {
			t.Errorf("workers=%d: ran=%v yields=%d under a canceled context", workers, ran, yields)
		}
		_, err := all(ctx, Options{Parallel: workers}, 10, func(int) (int, error) { return 0, nil })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: all returned %v, want context.Canceled", workers, err)
		}
	}
}

// TestAllReturnsFirstErrorInIndexOrder fails two points, the later one
// first in wall time, and checks all reports the earlier index.
func TestAllReturnsFirstErrorInIndexOrder(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range []int{1, 2, 8} {
		_, err := all(context.Background(), Options{Parallel: workers}, 8, func(i int) (int, error) {
			switch i {
			case 3:
				time.Sleep(5 * time.Millisecond)
				return 0, errA
			case 5:
				return 0, errB
			}
			return i, nil
		})
		if err != errA {
			t.Errorf("workers=%d: all returned %v, want the index-3 error", workers, err)
		}
	}
}
