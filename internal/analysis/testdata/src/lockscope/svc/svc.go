// Fixture for lockscope: target calls (Search, store I/O, Evaluate and
// its variants) made while a sync mutex is statically held must be
// flagged; calls after release, on fresh goroutines, or under an
// //aarc:locked waiver must not.
package svc

import (
	"sync"

	"lockscope/store"
	"lockscope/workflow"
)

type engine struct{}

func (engine) Search(q string) string { return q }

type S struct {
	mu  sync.Mutex
	eng engine
	st  store.Store
	run *workflow.Runner
}

func (s *S) searchUnderLock(q string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Search(q) // want `a search while holding mutex s\.mu`
}

func (s *S) storeUnderLock() {
	s.mu.Lock()
	_ = s.st.Put("k", nil) // want `store I/O while holding mutex s\.mu`
	s.mu.Unlock()
}

func (s *S) evaluateUnderLock() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.run.Evaluate(nil) // want `a workflow evaluation while holding mutex s\.mu`
}

// evaluateVariantsUnderLock: measuring into a result and evaluating at
// an input scale are evaluations too.
func (s *S) evaluateVariantsUnderLock() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.run.EvaluateInto(nil, nil)         // want `a workflow evaluation while holding mutex s\.mu`
	return s.run.EvaluateScale(nil, 1.4) // want `a workflow evaluation while holding mutex s\.mu`
}

// evaluateOwned is the sanctioned exception: the mutex exists to own
// the non-thread-safe callee.
func (s *S) evaluateOwned() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.run.EvaluateInto(nil, nil)      //aarc:locked the mutex owns this Runner; locking it is what makes EvaluateInto safe
	_ = s.run.EvaluateScale(nil, 1.4) //aarc:locked the mutex owns this Runner; locking it is what makes EvaluateScale safe
	return s.run.Evaluate(nil)        //aarc:locked the mutex owns this Runner; locking it is what makes Evaluate safe
}

func (s *S) afterUnlock(q string) string {
	s.mu.Lock()
	s.mu.Unlock()
	return s.eng.Search(q) // ok: lock already released
}

func (s *S) spawnedGoroutine(q string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.eng.Search(q) // ok: runs on its own goroutine, without the lock
	}()
}

// branchStaysHeld: a lock taken before a branch is held inside it.
func (s *S) branchStaysHeld(cold bool) {
	s.mu.Lock()
	if cold {
		_ = s.st.Put("k", nil) // want `store I/O while holding mutex s\.mu`
	}
	s.mu.Unlock()
}

func (s *S) noLockAtAll(q string) string {
	return s.eng.Search(q) // ok: nothing held
}

// branchAcquire takes the lock on one path only and keeps it past the
// join: the held set there is the union of both paths, so the search
// after the if may run under s.mu.
func (s *S) branchAcquire(q string, cold bool) string {
	if cold {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	return s.eng.Search(q) // want `a search while holding mutex s\.mu`
}

// breakHoldingLock leaves the loop with the lock still held on the
// break path, so the store write after the loop may run under it.
func (s *S) breakHoldingLock(keys []string) {
	for _, k := range keys {
		s.mu.Lock()
		if k == "" {
			break
		}
		s.mu.Unlock()
	}
	_ = s.st.Put("k", nil) // want `store I/O while holding mutex s\.mu`
}

// otherKeyReleased unlocks another receiver: a release matches the
// printed receiver, so s.mu stays held.
func (s *S) otherKeyReleased(o *S, q string) string {
	s.mu.Lock()
	o.mu.Unlock()
	return s.eng.Search(q) // want `a search while holding mutex s\.mu`
}

// localMutex: a function-local mutex counts for lock hygiene.
func (s *S) localMutex(q string) string {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	return s.eng.Search(q) // want `a search while holding mutex mu`
}

// literalUnderLock builds a literal under the lock; the literal starts
// with the set held where it appears.
func (s *S) literalUnderLock(q string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	search := func() string { return s.eng.Search(q) } // want `a search while holding mutex s\.mu`
	return search()
}

// gotoHeld jumps past the unlock with the lock held.
func (s *S) gotoHeld(q string, retry bool) string {
	s.mu.Lock()
	if retry {
		goto search
	}
	s.mu.Unlock()
	return ""
search:
	return s.eng.Search(q) // want `a search while holding mutex s\.mu`
}

// labeledBreakHeld leaves both loops from the inner one with the lock
// held.
func (s *S) labeledBreakHeld(rows [][]string) {
outer:
	for _, row := range rows {
		for _, k := range row {
			s.mu.Lock()
			if k == "" {
				break outer
			}
			s.mu.Unlock()
		}
	}
	_ = s.st.Delete("k") // want `store I/O while holding mutex s\.mu`
}

// selectAcquire takes the lock in one select case and keeps it past
// the select.
func (s *S) selectAcquire(ch chan int) {
	select {
	case <-ch:
		s.mu.Lock()
	default:
	}
	_ = s.st.Put("k", nil) // want `store I/O while holding mutex s\.mu`
}
