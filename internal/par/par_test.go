package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDo: every index runs exactly once at any pool size, and w stays
// below the pool size. The first pool-many calls wait for each other, so
// every goroutine of the pool takes one of them and its w is checked.
// perW is written without the lock, so under -race two goroutines sharing
// one w fail the test.
func TestDo(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 100} {
			var mu sync.Mutex
			hits := make([]int, n)
			pool := max(1, min(workers, n))
			perW := make([]int, pool)
			var arrived atomic.Int64
			all := make(chan struct{})
			Do(n, workers, func(w, i int) {
				if w < 0 || w >= pool {
					t.Errorf("workers=%d n=%d: index %d ran on w=%d, outside [0, %d)", workers, n, i, w, pool)
					return
				}
				perW[w]++
				mu.Lock()
				hits[i]++
				mu.Unlock()
				if i >= pool {
					return
				}
				if arrived.Add(1) == int64(pool) {
					close(all)
				}
				select {
				case <-all:
				case <-time.After(10 * time.Second):
					t.Errorf("workers=%d n=%d: fewer than %d goroutines ran at once", workers, n, pool)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}
