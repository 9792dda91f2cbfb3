package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// attachCtx reports through attached when a do call starts waiting as a
// follower: do reads ctx.Done() only after it has found the key in
// flight, so once attached is closed the caller is committed to the
// running leader's result.
type attachCtx struct {
	context.Context
	once     sync.Once
	attached chan struct{}
}

func (c *attachCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.attached) })
	return c.Context.Done()
}

func TestFlightGroupLeaderAndFollowersShareOneRun(t *testing.T) {
	var g flightGroup
	var runs int
	const callers = 16
	var wg sync.WaitGroup
	vals := make([][]byte, callers)
	errs := make([]error, callers)
	release := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = g.do(context.Background(), "k", func() ([]byte, error) {
				runs++ // only ever one runner: no lock needed, -race verifies
				<-release
				return []byte("result"), nil
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
		if errs[i] != nil || string(vals[i]) != "result" {
			t.Errorf("caller %d got (%q, %v)", i, vals[i], errs[i])
		}
	}
}

func TestFlightGroupFollowerContextCancel(t *testing.T) {
	var g flightGroup
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	defer func() { close(release); <-leaderDone }()
	go func() {
		defer close(leaderDone)
		g.do(context.Background(), "k", func() ([]byte, error) {
			close(entered)
			<-release
			return nil, nil
		})
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, err := g.do(ctx, "k", func() ([]byte, error) {
		t.Error("cancelled follower became leader")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) || v != nil {
		t.Errorf("cancelled follower got (%q, %v), want (nil, ctx.Err())", v, err)
	}
}

// TestFlightGroupLeaderPanicPublishesSentinel is the regression test for
// the panicking-leader hole: a cleanup that closed done with val and err
// both unset let followers observe (nil, nil) — a "successful" nil body
// the configure path would then serve. A panicking leader must publish
// errLeaderPanicked, release the key, and keep panicking.
func TestFlightGroupLeaderPanicPublishesSentinel(t *testing.T) {
	var g flightGroup
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		defer func() {
			if recover() == nil {
				t.Error("do swallowed the leader's panic")
			}
		}()
		g.do(context.Background(), "k", func() ([]byte, error) {
			close(entered)
			<-release
			panic("search exploded")
		})
	}()
	<-entered

	// The leader is parked inside fn, so the key is still held: this do
	// attaches as a follower, and release waits until it has.
	follower := &attachCtx{Context: context.Background(), attached: make(chan struct{})}
	var v []byte
	var err error
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		v, err = g.do(follower, "k", func() ([]byte, error) {
			t.Error("second do became leader while the first was in flight")
			follower.once.Do(func() { close(follower.attached) })
			return nil, nil
		})
	}()
	<-follower.attached
	close(release)
	<-followerDone
	if !errors.Is(err, errLeaderPanicked) {
		t.Errorf("follower of a panicked leader got err %v, want errLeaderPanicked", err)
	}
	if v != nil {
		t.Errorf("follower of a panicked leader got value %q, want nil", v)
	}
	<-leaderDone

	// The key was released: the next caller starts a fresh flight.
	ran := false
	g.do(context.Background(), "k", func() ([]byte, error) {
		ran = true
		return nil, nil
	})
	if !ran {
		t.Error("key still held after the panicked flight")
	}
}

// TestFlightGroupFinishReleasesKey: a leader's normal return releases the
// key, so the next do for it runs its own fn instead of reading the
// published result.
func TestFlightGroupFinishReleasesKey(t *testing.T) {
	var g flightGroup
	ctx := context.Background()
	if v, err := g.do(ctx, "k", func() ([]byte, error) { return []byte("first"), nil }); string(v) != "first" || err != nil {
		t.Fatalf("first do = (%q, %v), want (first, nil)", v, err)
	}
	if v, err := g.do(ctx, "k", func() ([]byte, error) { return []byte("second"), nil }); string(v) != "second" || err != nil {
		t.Errorf("do after a finished flight = (%q, %v), want (second, nil)", v, err)
	}
}
