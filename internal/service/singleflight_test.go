package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// flightDo drives the group as every production leader does: claim,
// then wait as a follower or run fn and finish, with abandon deferred.
// shared reports whether this caller received a leader's result.
func flightDo(ctx context.Context, g *flightGroup, key string, fn func() (any, error)) (val any, err error, shared bool) {
	c, leader := g.claim(key)
	if !leader {
		val, err = g.wait(ctx, c)
		return val, err, true
	}
	defer g.abandon(key, c)
	val, err = fn()
	g.finish(key, c, val, err)
	return val, err, false
}

func TestFlightGroupLeaderAndFollowersShareOneRun(t *testing.T) {
	var g flightGroup
	var runs int
	const callers = 16
	var wg sync.WaitGroup
	vals := make([]any, callers)
	errs := make([]error, callers)
	release := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i], _ = flightDo(context.Background(), &g, "k", func() (any, error) {
				runs++ // only ever one runner: no lock needed, -race verifies
				<-release
				return "result", nil
			})
		}(i)
	}
	// Let the goroutines pile up on the flight before releasing it.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if runs != 1 {
		t.Errorf("%d callers ran fn %d times, want 1", callers, runs)
	}
	for i := range vals {
		if errs[i] != nil || vals[i] != "result" {
			t.Errorf("caller %d got (%v, %v)", i, vals[i], errs[i])
		}
	}
}

func TestFlightGroupFollowerContextCancel(t *testing.T) {
	var g flightGroup
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		flightDo(context.Background(), &g, "k", func() (any, error) {
			close(entered)
			<-release
			return nil, nil
		})
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err, shared := flightDo(ctx, &g, "k", func() (any, error) {
		t.Error("cancelled follower became leader")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) || !shared {
		t.Errorf("cancelled follower got (err=%v, shared=%v), want ctx.Err(), true", err, shared)
	}
}

// TestFlightGroupLeaderPanicPublishesSentinel is the regression test for
// the panicking-leader hole: the deferred cleanup used to close done with
// val and err both unset, so followers observed (nil, nil) — a
// "successful" nil body that Service.configure would then dereference.
// The leader must publish errLeaderPanicked before closing.
func TestFlightGroupLeaderPanicPublishesSentinel(t *testing.T) {
	var g flightGroup
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		defer func() {
			if recover() == nil {
				t.Error("flightDo swallowed the leader's panic")
			}
		}()
		flightDo(context.Background(), &g, "k", func() (any, error) {
			close(entered)
			<-release
			panic("search exploded")
		})
	}()
	<-entered

	// The leader is parked inside fn, so the key is still claimed: this
	// claim is guaranteed to attach as a follower.
	c, leader := g.claim("k")
	if leader {
		t.Fatal("second claim became leader while the first was in flight")
	}
	close(release)
	v, err := g.wait(context.Background(), c)
	if !errors.Is(err, errLeaderPanicked) {
		t.Errorf("follower of a panicked leader got err %v, want errLeaderPanicked", err)
	}
	if v != nil {
		t.Errorf("follower of a panicked leader got value %v, want nil", v)
	}
	<-leaderDone

	// The key was released: the next caller starts a fresh flight.
	if _, leader := g.claim("k"); !leader {
		t.Error("key still claimed after the panicked flight was abandoned")
	}
}

func TestFlightGroupFinishReleasesKey(t *testing.T) {
	var g flightGroup
	c, leader := g.claim("k")
	if !leader {
		t.Fatal("first claim was not the leader")
	}
	g.finish("k", c, 42, nil)
	if v, err := g.wait(context.Background(), c); v != 42 || err != nil {
		t.Errorf("wait after finish = (%v, %v), want (42, nil)", v, err)
	}
	// abandon after finish must not overwrite the published result.
	g.abandon("k", c)
	if v, err := g.wait(context.Background(), c); v != 42 || err != nil {
		t.Errorf("wait after abandon-of-finished = (%v, %v), want (42, nil)", v, err)
	}
}
