package service

import (
	"context"
	"errors"
	"sync"
)

// flightGroup deduplicates concurrent work by key: the first caller for a
// key becomes the leader and owes the group a result; every caller that
// arrives while the leader is in flight waits for the leader's result
// instead of running the work again. Unlike golang.org/x/sync/singleflight
// (not vendored here), the wait is context-aware: a follower whose context
// is cancelled stops waiting and returns its ctx.Err() while the leader
// keeps running — one impatient client never aborts work other clients
// are waiting on.
//
// The group exposes primitives (claim, wait, finish, abandon) because
// the batched configure path claims many keys up front, runs them on a
// worker pool, and finishes each flight as its item completes, so
// singleton callers attached to any one fingerprint are released by that
// item, not by the whole batch.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done     chan struct{} // closed when val/err are published
	val      any
	err      error
	finished bool // set by finish; read only by the leader side (abandon)
}

// errLeaderPanicked is published to followers when a leader dies without
// producing a result (its fn panicked and was recovered further up, e.g.
// by net/http). Without the sentinel, the deferred cleanup would close
// done with val and err both unset, and followers would observe
// (nil, nil) as success — a nil body the configure path would then
// dereference.
var errLeaderPanicked = errors.New("service: in-flight search abandoned (leader panicked)")

// claim registers this caller for key. The first caller becomes the
// leader (leader == true) and owes the group exactly one finish — or
// abandon, deferred, if its work can panic — for the returned call; later
// callers receive the existing in-flight call to wait on.
func (g *flightGroup) claim(key string) (c *flightCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if existing, ok := g.m[key]; ok {
		return existing, false
	}
	c = &flightCall{done: make(chan struct{})}
	g.m[key] = c
	return c, true
}

// wait blocks until the call's result is published or ctx is cancelled.
func (g *flightGroup) wait(ctx context.Context, c *flightCall) (any, error) {
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// finish publishes the leader's result and releases the key. The result
// fields are set before done is closed, so no waiter can observe a
// half-published call; the key is deleted first, so a caller arriving
// after finish starts a fresh flight rather than reading a stale one.
func (g *flightGroup) finish(key string, c *flightCall, val any, err error) {
	c.val, c.err = val, err
	c.finished = true
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
}

// abandon is the leader's deferred safety net: if the call was never
// finished — the leader's fn panicked — it publishes errLeaderPanicked so
// followers fail cleanly instead of reading an unset (nil, nil) as
// success. A finished call is left alone. Every leader defers it: the
// singleton configure leader and ConfigureBatch for each flight it
// claims.
func (g *flightGroup) abandon(key string, c *flightCall) {
	if c.finished {
		return
	}
	g.finish(key, c, nil, errLeaderPanicked)
}
