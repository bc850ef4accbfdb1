// Package ld exercises the lockdiscipline analyzer: leaks, returns while
// locked, double acquires, closures that lock without releasing, and the
// idioms that must stay clean (defers, deferred closures, early
// unlock-and-return, goroutine-local locking).
package ld

import "sync"

type S struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// ok: the canonical defer.
func (s *S) Good() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
}

// ok: straight-line unlock.
func (s *S) GoodInline() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// ok: early unlock before a fast-path return (the prepared-cache idiom).
func (s *S) GoodEarly(hit bool) int {
	s.mu.Lock()
	if hit {
		n := s.n
		s.mu.Unlock()
		return n
	}
	s.n++
	s.mu.Unlock()
	return 0
}

// ok: both switch arms rejoin before the unlock.
func (s *S) GoodSwitch(k int) {
	s.mu.Lock()
	switch k {
	case 0:
		s.n = 0
	default:
		s.n++
	}
	s.mu.Unlock()
}

// ok: deferred closure performs the unlock.
func (s *S) GoodDeferClosure() {
	s.mu.Lock()
	defer func() {
		s.n++
		s.mu.Unlock()
	}()
}

// ok: the goroutine is its own scope and balances its own locking.
func (s *S) GoodGoroutine() {
	go func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.n++
	}()
}

// Leak: the lock falls off the end of the function.
func (s *S) Leak() {
	s.mu.Lock()
	s.n++
} // want `function ends with s\.mu still locked`

// Return while the lock is held on one branch.
func (s *S) ReturnLocked(flag bool) int {
	s.mu.Lock()
	if flag {
		return s.n // want `returns with s\.mu still locked`
	}
	s.mu.Unlock()
	return 0
}

// Double acquire of the same instance.
func (s *S) Double() {
	s.mu.Lock()
	s.mu.Lock() // want `s\.mu locked again while already held`
	s.mu.Unlock()
}

// ok: read-read nesting on an RWMutex does not self-deadlock.
func (s *S) GoodReadRead() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.n
}

// A read lock under the write lock of the same RWMutex deadlocks.
func (s *S) WriteThenRead() int {
	s.rw.Lock()
	defer s.rw.Unlock()
	s.rw.RLock() // want `s\.rw locked again while already held`
	return s.n
}

// A deferred closure is a scope of its own: it must release what it locks.
func (s *S) DeferClosureLeak() {
	defer func() {
		s.mu.Lock()
		s.n--
	}() // want `closure ends with s\.mu still locked`
	s.n++
}

// A loop body that acquires without releasing.
func (s *S) LoopLeak(xs []int) {
	for range xs {
		s.mu.Lock() // want `loop body leaves s\.mu locked`
		s.n++
	}
}

// ok: a local mutex balanced in-function.
func LocalBalanced() {
	var mu sync.Mutex
	mu.Lock()
	mu.Unlock()
}

// A local mutex leak still reports (keyed by expression).
func LocalLeak() {
	var mu sync.Mutex
	mu.Lock()
} // want `function ends with mu still locked`

// ok: an audited handoff suppressed at the report line.
func (s *S) Handoff() {
	s.mu.Lock()
	//lint:ignore lockdiscipline lock intentionally handed to the caller, which releases it
}
