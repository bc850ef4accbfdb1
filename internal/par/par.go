// Package par is the repository's one bounded fan-out: the parallel work
// of core, feature, rdf, fed and traffic all runs through Do.
package par

import (
	"sync"
	"sync/atomic"
)

// Do calls fn(w, i) exactly once for each i in [0, n), on at most workers
// goroutines that take the next index as they free up. w, in
// [0, workers), names the goroutine running the call, so a caller can keep
// per-goroutine state in a slice of that length; calls with one w never
// overlap. With one worker, or one index, Do runs every call inline on
// the calling goroutine. Do returns once every call has returned.
//
// Which goroutine runs an index is up to the scheduler: callers get
// results that do not depend on the worker count by making fn(w, i)
// depend only on i, not on w or on the order of the calls.
func Do(n, workers int, fn func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	p := &pool{n: n, fn: fn}
	p.wg.Add(workers - 1)
	for range workers - 1 {
		go p.work()
	}
	p.run(0) // the calling goroutine is worker 0
	p.wg.Wait()
}

// pool is what one Do call shares with its goroutines, in one allocation.
type pool struct {
	next, started atomic.Int64
	wg            sync.WaitGroup
	n             int
	fn            func(w, i int)
}

// work runs one started goroutine. It takes its w from a counter rather
// than as an argument: a go statement with arguments allocates once more.
func (p *pool) work() {
	defer p.wg.Done()
	p.run(int(p.started.Add(1)))
}

// run calls fn for the next free index until none is left.
func (p *pool) run(w int) {
	for i := int(p.next.Add(1)) - 1; i < p.n; i = int(p.next.Add(1)) - 1 {
		p.fn(w, i)
	}
}
