// Package dep fakes an imported serving package with its own mutexes,
// for the svc fixture's nesting of imported mutexes and its call into
// another package under a lock.
package dep

import "sync"

type A struct{ Mu sync.Mutex }

type B struct{ Mu sync.Mutex }

// LockA acquires only A; a caller holding another lock is not reported,
// since lockorder follows same-package calls only.
func LockA(a *A) {
	a.Mu.Lock()
	a.Mu.Unlock()
}
