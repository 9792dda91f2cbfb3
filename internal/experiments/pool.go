package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool for running independent experiment cells
// concurrently, in the long-poll/worker style of DAG processors: a fixed set
// of workers pulls task indices from a shared counter until the task list is
// drained. Every cell owns its Runner and Searcher (runners reuse a scratch
// arena and are not concurrency-safe; the simulated Platform is), and cell
// seeds are a pure function of the cell, never of scheduling order — so a
// parallel run produces byte-identical experiment output to a sequential
// one.
type Pool struct {
	workers int
}

// NewPool returns a pool with the given worker count; workers <= 0 selects
// GOMAXPROCS. A one-worker pool degenerates to sequential in-place
// execution.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool's concurrency; a nil pool is sequential.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// poolClaimed, when non-nil, is called between a task's claim and its
// run. It exists for tests only: it widens the otherwise instruction-wide
// claim→run window so the regression test for the claim-then-skip race
// can force the schedule where a later-claimed task fails while an
// earlier claim is still pending. Production code never sets it.
var poolClaimed func(i int)

// Do runs fn(0), ..., fn(n-1) with at most Workers() tasks in flight and
// returns the lowest-index error (deterministic even when several tasks fail
// concurrently). A nil or single-worker pool runs the tasks inline in index
// order, stopping at the first error, exactly like the sequential loops this
// replaces.
func (p *Pool) Do(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	// Tasks are claimed in index order and a claimed task always runs: the
	// failure check sits before the claim, never between a claim and its
	// run. When task f fails, every index below f is already claimed and
	// will finish, so the lowest-index error is deterministic regardless of
	// scheduling; unclaimed tasks are skipped to avoid wasted work after a
	// failure, like the sequential loop's early exit. (Checking failed
	// after claiming would let a worker drop its claimed task when a
	// later-claimed task fails inside the claim→run window, returning a
	// non-lowest error.)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if h := poolClaimed; h != nil {
					h(i)
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
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
	return nil
}
