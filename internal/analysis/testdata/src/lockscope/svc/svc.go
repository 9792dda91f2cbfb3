// Fixture for lockscope: target calls (Search, store I/O, Evaluate and
// its variants) made while a sync mutex is statically held must be
// flagged, and so must calls to same-package helpers that make them;
// calls after release, on fresh goroutines, or under an //aarc:locked
// waiver must not.
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

// readersUnderLock: the store package's readers over a Store are store
// I/O too.
func (s *S) readersUnderLock(k string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = store.Peek(s.st, k)     // want `store I/O while holding mutex s\.mu`
	return store.Contains(s.st, k) // want `store I/O while holding mutex s\.mu`
}

func (s *S) readersAfterUnlock(k string) bool {
	s.mu.Lock()
	s.mu.Unlock()
	_, _ = store.Peek(s.st, k)
	return store.Contains(s.st, k) // ok: lock already released
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

// readThrough does store I/O itself, holding nothing.
func (s *S) readThrough(k string) []byte {
	b, _ := s.st.Get(k)
	return b
}

// lookup reaches store I/O through readThrough.
func (s *S) lookup(k string) []byte { return s.readThrough(k) }

// helperUnderLock calls helpers that do store I/O, directly and through
// another helper, with the lock held: each call is the I/O itself.
func (s *S) helperUnderLock(k string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.readThrough(k) // want `store I/O \(in svc\.\(S\)\.readThrough\) while holding mutex s\.mu`
	return s.lookup(k)   // want `store I/O \(in svc\.\(S\)\.lookup\) while holding mutex s\.mu`
}

// helperAfterUnlock calls the same helper once the lock is released.
func (s *S) helperAfterUnlock(k string) []byte {
	s.mu.Lock()
	s.mu.Unlock()
	return s.readThrough(k) // ok: lock already released
}

// ownedHelper evaluates under a waiver only, so it does nothing the
// rule forbids, and neither does calling it under another lock.
func (s *S) ownedHelper() float64 {
	return s.run.Evaluate(nil) //aarc:locked the caller's mutex owns this Runner
}

func (s *S) waivedHelperUnderLock() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ownedHelper() // ok: the helper's evaluation carries its own waiver
}

// spawnsSearch searches on a goroutine it spawns, not on its caller's.
func (s *S) spawnsSearch(q string) {
	go s.eng.Search(q)
}

func (s *S) spawnerUnderLock(q string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spawnsSearch(q) // ok: the search runs on its own goroutine
}
