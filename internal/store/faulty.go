package store

import (
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the default error a Faulty store injects.
var ErrInjected = errors.New("store: injected fault")

// FaultConfig shapes a Faulty wrapper's steady-state behavior. All fields
// are optional; the zero value is a fully quiescent wrapper that passes
// the conformance suite unchanged. Scripted and switched faults
// (Script, FailAll) are runtime methods on Faulty, layered on top of
// this static configuration.
type FaultConfig struct {
	// GetFailProb / PutFailProb inject ErrInjected on that fraction of
	// Gets / Puts, drawn from a Seed-determined stream: two wrappers with
	// the same seed fault the same ops in the same order. Deletes fault
	// only by script or switch.
	GetFailProb float64
	PutFailProb float64
	// FailFirstPerKey fails each key's first Get and first Put once
	// (ErrInjected), passing every later op on that key through — a
	// deterministic transient-fault pattern that a >= 2-attempt Retry
	// recovers from under any concurrent interleaving (the guarantee is
	// per key, not per a shared counter, so a racing op cannot steal the
	// recovery slot). Used to run the conformance suite over a
	// faulting-but-recoverable stack.
	FailFirstPerKey bool
	// Latency is injected before every inner op (both faulted and clean),
	// simulating a slow tier.
	Latency time.Duration
	// TornWrites makes a failed Put leave a torn entry beneath: the
	// truncated first half of Body and Meta is written to the inner store
	// before the error is returned — the partial-write hazard a retrying
	// caller must overwrite and a non-retrying caller must never trust.
	TornWrites bool
	// Seed drives the probability streams. The zero seed is valid and
	// deterministic like any other.
	Seed uint64
}

// Faulty is a deterministic fault-injection Store wrapper: the test
// harness for the resilience stack (Retry, Breaker, Tiered degradation).
// It injects errors by probability (FaultConfig), by script (Script) or
// by switch (FailAll/Recover), optionally with latency and torn writes.
// Quiescent, it is a transparent pass-through. Safe for concurrent use
// when the inner store is.
type Faulty struct {
	inner Store
	cfg   FaultConfig

	mu        sync.Mutex
	rng       *rand.Rand
	script    []error                    // consumed one per fault-eligible op; nil slot = clean
	switchErr error                      // FailAll sentinel; nil = off
	firstSeen map[opKind]map[string]bool // FailFirstPerKey bookkeeping

	ops      atomic.Int64
	injected atomic.Int64
}

// NewFaulty wraps inner with the given fault configuration.
func NewFaulty(inner Store, cfg FaultConfig) *Faulty {
	return &Faulty{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
	}
}

// Script queues per-op outcomes consumed in order by the next
// fault-eligible ops (Get/Put/Delete): a nil slot lets the op through, a
// non-nil one fails it with that error. Scripted outcomes take precedence
// over every other fault mode until the queue drains.
func (f *Faulty) Script(outcomes ...error) {
	f.mu.Lock()
	f.script = append(f.script, outcomes...)
	f.mu.Unlock()
}

// FailAll fails every op with err (ErrInjected when nil) until Recover.
func (f *Faulty) FailAll(err error) {
	if err == nil {
		err = ErrInjected
	}
	f.mu.Lock()
	f.switchErr = err
	f.mu.Unlock()
}

// Recover clears FailAll; probability and scripted faults are
// unaffected.
func (f *Faulty) Recover() {
	f.mu.Lock()
	f.switchErr = nil
	f.mu.Unlock()
}

// Ops returns how many fault-eligible ops (Get/Put/Delete) reached this
// wrapper — including the ones it failed without touching the inner
// store. Breaker tests assert fast-fail by watching this stop moving.
func (f *Faulty) Ops() int64 { return f.ops.Load() }

// Injected returns how many faults this wrapper has injected.
func (f *Faulty) Injected() int64 { return f.injected.Load() }

// opKind distinguishes the fault-eligible ops for FailFirstPerKey.
type opKind int

const (
	opGet opKind = iota
	opPut
	opDelete
)

// fault decides one op's fate. prob is the op kind's configured
// probability.
func (f *Faulty) fault(kind opKind, key string, prob float64) error {
	f.ops.Add(1)
	if f.cfg.Latency > 0 {
		time.Sleep(f.cfg.Latency)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.script) > 0 {
		err := f.script[0]
		f.script = f.script[1:]
		if err != nil {
			f.injected.Add(1)
		}
		return err
	}
	if f.switchErr != nil {
		f.injected.Add(1)
		return f.switchErr
	}
	if f.cfg.FailFirstPerKey && kind != opDelete {
		if f.firstSeen == nil {
			f.firstSeen = make(map[opKind]map[string]bool)
		}
		seen := f.firstSeen[kind]
		if seen == nil {
			seen = make(map[string]bool)
			f.firstSeen[kind] = seen
		}
		if !seen[key] {
			seen[key] = true
			f.injected.Add(1)
			return ErrInjected
		}
	}
	if prob > 0 && f.rng.Float64() < prob {
		f.injected.Add(1)
		return ErrInjected
	}
	return nil
}

// Get implements Store.
func (f *Faulty) Get(key string) (Entry, bool, error) {
	if err := f.fault(opGet, key, f.cfg.GetFailProb); err != nil {
		return Entry{}, false, err
	}
	return f.inner.Get(key)
}

// Put implements Store. A faulted Put with TornWrites enabled still
// writes the truncated halves of the entry beneath before erroring.
func (f *Faulty) Put(key string, e Entry) error {
	if err := f.fault(opPut, key, f.cfg.PutFailProb); err != nil {
		if f.cfg.TornWrites {
			_ = f.inner.Put(key, Entry{Body: e.Body[:len(e.Body)/2], Meta: e.Meta[:len(e.Meta)/2]}) //aarc:errpath chaos injector: torn writes simulate the crash the checksums must catch
		}
		return err
	}
	return f.inner.Put(key, e)
}

// Delete implements Store.
func (f *Faulty) Delete(key string) error {
	if err := f.fault(opDelete, key, 0); err != nil {
		return err
	}
	return f.inner.Delete(key)
}

// Keys implements Store: no error channel, so never faulted.
func (f *Faulty) Keys() []string { return f.inner.Keys() }

// Len implements Store.
func (f *Faulty) Len() int { return f.inner.Len() }

// Close implements Store.
func (f *Faulty) Close() error { return f.inner.Close() }

// Stats implements StatsReporter, delegating to the inner store: fault
// injection is invisible to observability, like any transparent wrapper.
func (f *Faulty) Stats() Stats { return StatsOf(f.inner) }
