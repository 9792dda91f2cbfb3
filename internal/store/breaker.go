package store

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBreakerOpen is returned — without touching the inner store — by
// every op refused while the breaker is open or while a half-open probe
// is already in flight. Retry wrappers treat it as terminal.
var ErrBreakerOpen = errors.New("store: circuit breaker open (tier skipped)")

// BreakerState is one of the breaker's three states.
type BreakerState int32

const (
	// BreakerClosed: healthy; every op passes through.
	BreakerClosed BreakerState = iota
	// BreakerOpen: tripped; every op fails fast with ErrBreakerOpen
	// until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: cooldown elapsed; exactly one probe op is let
	// through. Its success closes the breaker, its failure reopens it.
	BreakerHalfOpen
)

// String returns the state's wire name ("closed", "open", "half-open").
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes a Breaker. Zero fields take the documented
// defaults.
type BreakerConfig struct {
	// Threshold is how many consecutive op failures open the breaker
	// (default 5).
	Threshold int
	// Cooldown is how long an open breaker refuses ops before admitting
	// a half-open probe (default 15s).
	Cooldown time.Duration
	// Logf, when non-nil, receives one line per state transition
	// (log.Printf-shaped).
	Logf func(format string, args ...any)
	// Clock overrides time.Now for tests; nil uses the real clock.
	Clock func() time.Time
}

// Breaker is a three-state circuit breaker Store wrapper: closed → open
// after Threshold consecutive failures → half-open probe after Cooldown
// → closed on probe success (or back to open on probe failure). While
// open, every Get/Put/Delete fails fast with ErrBreakerOpen and the
// inner store is never touched — a dead disk tier costs a refused call,
// not a failing syscall, and a Tiered store above degrades to
// memory-only serving. Keys, Len and Close always pass through (the
// shipped Disk store answers them from its in-memory index). Safe for
// concurrent use.
type Breaker struct {
	inner Store
	cfg   BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // last transition into BreakerOpen
	probing  bool      // a half-open probe is in flight

	transitions atomic.Int64 // state changes since construction
	fastFails   atomic.Int64 // ops refused without touching the inner store
}

// NewBreaker wraps inner with the given breaker policy.
func NewBreaker(inner Store, cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 15 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Breaker{inner: inner, cfg: cfg}
}

// State returns the breaker's effective state. An open breaker whose
// cooldown has elapsed reports BreakerHalfOpen even before the next op
// arrives to run the probe: readiness endpoints see "recovering" as soon
// as it is true, not only once traffic happens by.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.cfg.Clock().Sub(b.openedAt) >= b.cfg.Cooldown {
		return BreakerHalfOpen
	}
	return b.state
}

// Transitions returns how many state changes the breaker has made.
func (b *Breaker) Transitions() int64 { return b.transitions.Load() }

// FastFails returns how many ops were refused without an inner call.
func (b *Breaker) FastFails() int64 { return b.fastFails.Load() }

// setState transitions (caller holds b.mu), logging and counting.
func (b *Breaker) setState(next BreakerState) {
	if b.state == next {
		return
	}
	prev := b.state
	b.state = next
	b.transitions.Add(1)
	if next == BreakerOpen {
		b.openedAt = b.cfg.Clock()
	}
	if b.cfg.Logf != nil {
		b.cfg.Logf("store: breaker %s -> %s", prev, next)
	}
}

// admit decides whether one op may proceed. probe reports that the op is
// the half-open probe and must report back via record even on panic-free
// early returns.
func (b *Breaker) admit() (probe bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return false, nil
	case BreakerOpen:
		if b.cfg.Clock().Sub(b.openedAt) < b.cfg.Cooldown {
			b.fastFails.Add(1)
			return false, ErrBreakerOpen
		}
		b.setState(BreakerHalfOpen)
		b.probing = true
		return true, nil
	default: // BreakerHalfOpen
		if b.probing {
			b.fastFails.Add(1)
			return false, ErrBreakerOpen
		}
		b.probing = true
		return true, nil
	}
}

// record books one admitted op's outcome.
func (b *Breaker) record(probe bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	if err != nil {
		if b.state == BreakerHalfOpen {
			// The probe failed: back to open, cooldown restarted.
			b.setState(BreakerOpen)
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.setState(BreakerOpen)
			b.failures = 0
		}
		return
	}
	b.failures = 0
	if b.state == BreakerHalfOpen {
		b.setState(BreakerClosed)
	}
}

// Get implements Store, failing fast while open.
func (b *Breaker) Get(key string) (Entry, bool, error) {
	probe, err := b.admit()
	if err != nil {
		return Entry{}, false, err
	}
	e, ok, err := b.inner.Get(key)
	b.record(probe, err)
	return e, ok, err
}

// Put implements Store, failing fast while open.
func (b *Breaker) Put(key string, e Entry) error {
	probe, err := b.admit()
	if err != nil {
		return err
	}
	err = b.inner.Put(key, e)
	b.record(probe, err)
	return err
}

// Delete implements Store, failing fast while open.
func (b *Breaker) Delete(key string) error {
	probe, err := b.admit()
	if err != nil {
		return err
	}
	err = b.inner.Delete(key)
	b.record(probe, err)
	return err
}

// Keys implements Store, always passing through.
func (b *Breaker) Keys() []string { return b.inner.Keys() }

// Len implements Store, always passing through.
func (b *Breaker) Len() int { return b.inner.Len() }

// Close implements Store, always passing through.
func (b *Breaker) Close() error { return b.inner.Close() }

// Stats implements StatsReporter: the inner store's stats plus this
// breaker's state.
func (b *Breaker) Stats() Stats {
	s := StatsOf(b.inner)
	s.Breaker = b.State().String()
	return s
}
