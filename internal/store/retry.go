package store

import (
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// RetryConfig tunes a Retry wrapper. Zero fields take the documented
// defaults.
type RetryConfig struct {
	// Attempts is the total tries per op, first included (default 3).
	Attempts int
	// BaseDelay is the backoff before the first retry (default 500µs);
	// each further retry doubles it, up to MaxDelay (default 20ms). Every
	// delay is jittered uniformly in [0.5x, 1.5x) so synchronized callers
	// don't hammer a recovering tier in lockstep.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed drives the jitter stream (deterministic per seed).
	Seed uint64
}

// Retry wraps a Store with bounded, jittered-exponential-backoff retries
// for transient op errors. Get, Put and Delete are retried (all three are
// idempotent under this contract — Put replaces, Delete tolerates
// absence); Keys, Len and Close are single-shot. Terminal errors —
// ErrClosed from a closed store, ErrBreakerOpen from an open breaker —
// are never retried: backing off cannot fix them and would only stack
// latency on a path the breaker exists to keep cheap. Safe for
// concurrent use when the inner store is.
type Retry struct {
	inner Store
	cfg   RetryConfig

	mu  sync.Mutex
	rng *rand.Rand

	retries atomic.Int64

	// sleep is swapped by tests to avoid real backoff waits.
	sleep func(time.Duration)
}

// NewRetry wraps inner with the given retry policy.
func NewRetry(inner Store, cfg RetryConfig) *Retry {
	if cfg.Attempts <= 0 {
		cfg.Attempts = 3
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 500 * time.Microsecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 20 * time.Millisecond
	}
	return &Retry{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x517cc1b727220a95)),
		sleep: time.Sleep,
	}
}

// Retries returns how many retry attempts (beyond each op's first try)
// this wrapper has spent since construction.
func (r *Retry) Retries() int64 { return r.retries.Load() }

// retryable reports whether backing off and trying again can help.
func retryable(err error) bool {
	return !errors.Is(err, ErrClosed) && !errors.Is(err, ErrBreakerOpen)
}

// backoff returns the jittered delay before retry attempt i (0-based).
func (r *Retry) backoff(i int) time.Duration {
	d := r.cfg.BaseDelay << i
	if d > r.cfg.MaxDelay || d <= 0 { // <= 0: shift overflow
		d = r.cfg.MaxDelay
	}
	r.mu.Lock()
	jitter := 0.5 + r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// do runs op up to Attempts times, backing off between tries.
func (r *Retry) do(op func() error) error {
	var err error
	for i := 0; i < r.cfg.Attempts; i++ {
		if i > 0 {
			r.sleep(r.backoff(i - 1))
			r.retries.Add(1)
		}
		if err = op(); err == nil || !retryable(err) {
			return err
		}
	}
	return err
}

// Get implements Store, retrying transient errors.
func (r *Retry) Get(key string) (Entry, bool, error) {
	var e Entry
	var ok bool
	err := r.do(func() error {
		var err error
		e, ok, err = r.inner.Get(key)
		return err
	})
	return e, ok, err
}

// Put implements Store, retrying transient errors. A retried Put
// overwrites whatever a previous torn attempt left behind — the repair
// path for partial writes.
func (r *Retry) Put(key string, e Entry) error {
	return r.do(func() error { return r.inner.Put(key, e) })
}

// Delete implements Store, retrying transient errors.
func (r *Retry) Delete(key string) error {
	return r.do(func() error { return r.inner.Delete(key) })
}

// Keys implements Store.
func (r *Retry) Keys() []string { return r.inner.Keys() }

// Len implements Store.
func (r *Retry) Len() int { return r.inner.Len() }

// Close implements Store.
func (r *Retry) Close() error { return r.inner.Close() }

// Stats implements StatsReporter: the inner store's stats plus this
// wrapper's retry count.
func (r *Retry) Stats() Stats {
	s := StatsOf(r.inner)
	s.Retries += r.Retries()
	return s
}
