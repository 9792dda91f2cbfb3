package service

import (
	"context"
	"errors"
	"sync"
)

// flightGroup deduplicates concurrent work by key: the first caller for a
// key runs it, and every caller arriving while it runs waits for that
// result instead of running the work again. Unlike
// golang.org/x/sync/singleflight (not vendored here), the wait is
// context-aware: a follower whose context is cancelled returns its
// ctx.Err() while the leader keeps running, so one impatient client never
// aborts work other clients are waiting on. Both configure paths enter a
// flight only to run it at once (a batch miss when its pool worker starts
// it), so a key is only ever held by a running leader.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done chan struct{} // closed when val/err are published
	val  []byte
	err  error
}

// errLeaderPanicked is what followers of a panicking leader receive, in
// place of an unset (nil, nil) the configure path would serve as a body.
var errLeaderPanicked = errors.New("service: in-flight search abandoned (leader panicked)")

// do runs fn for the first caller of an idle key and hands its result
// to every caller arriving while it runs; a waiting caller gives up on
// its own ctx. The result starts as errLeaderPanicked and fn's return
// overwrites it, so a panicking fn publishes the sentinel while the panic
// unwinds the leader. The key is deleted before done is closed: a later
// caller starts a fresh flight rather than reading a stale one.
func (g *flightGroup) do(ctx context.Context, key string, fn func() ([]byte, error)) ([]byte, error) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	c := &flightCall{done: make(chan struct{}), err: errLeaderPanicked}
	g.m[key] = c
	g.mu.Unlock()

	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, c.err
}
