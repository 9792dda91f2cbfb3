// Package drift watches configured recommendations for staleness. The
// §IV-D engine configures each workload class once and never revisits;
// a long-lived service must notice when a cached recommendation's
// validation latency creeps toward its SLO — traffic drifted, the
// simulator's noise regime shifted, a method version produced a fluke —
// and queue it for background re-search.
//
// The Monitor is deliberately ignorant of the serving layer: it speaks
// a two-method Prober interface (list the fingerprints, sample one) and
// emits stale fingerprints on a bounded queue. The serving layer probes
// on its existing sharded runner pools (evaluateN, the path Evaluate
// uses) and consumes the queue with its background refresher.
//
// Detection is a rolling p99 with hysteresis: each sweep appends a few
// validation runs to a per-fingerprint window, and an entry is flagged
// when window-p99 crosses Threshold×SLO. A flagged entry is enqueued
// exactly once — not on every sweep it stays bad, which would refresh
// in a hot loop — and is re-armed only after its p99 recovers below the
// lower watermark (Threshold×Hysteresis×SLO). The gap between the two
// watermarks is what keeps an entry oscillating around the threshold
// from flapping between refresh and recovery.
package drift

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Prober is the monitor's view of the serving layer.
type Prober interface {
	// Fingerprints lists the currently stored fingerprints to watch.
	Fingerprints() []string
	// Probe runs the fingerprint's recommended assignment runs times and
	// returns the per-run end-to-end latencies plus the entry's SLO.
	// Errors skip the entry this sweep (an entry invalidated between
	// Fingerprints and Probe is not a monitor failure).
	Probe(fp string, runs int) (e2eMS []float64, sloMS float64, err error)
}

// Config tunes a Monitor. Zero fields take the documented defaults.
type Config struct {
	// Interval between sweeps; required (Run panics on zero — a monitor
	// without a cadence is a construction bug, not a default).
	Interval time.Duration
	// Threshold is the staleness watermark as a fraction of the SLO: an
	// entry is stale when its rolling validation p99 reaches
	// Threshold×SLO. Default 0.9 — flag entries *creeping toward* the
	// SLO, before they breach it.
	Threshold float64
	// Hysteresis is the recovery watermark as a fraction of the
	// threshold: a flagged entry re-arms only once its p99 falls below
	// Threshold×Hysteresis×SLO. Default 0.9.
	Hysteresis float64
	// Runs is how many validation executions each sweep adds to an
	// entry's rolling window. Default 8.
	Runs int
	// Window bounds the rolling latency window per entry. Default 64.
	Window int
	// QueueSize bounds the stale-fingerprint queue. A full queue drops
	// (counted) rather than blocking the sweep. Default 64.
	QueueSize int
}

func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = 0.9
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 0.9
	}
	if c.Runs <= 0 {
		c.Runs = 8
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	return c
}

// entryState is one fingerprint's rolling window and hysteresis flag.
type entryState struct {
	window  []float64 // ring, oldest overwritten at next
	next    int
	full    bool
	flagged bool
}

func (st *entryState) add(v float64, capacity int) {
	if len(st.window) < capacity && !st.full {
		st.window = append(st.window, v)
		if len(st.window) == capacity {
			st.full = true
		}
		return
	}
	st.window[st.next] = v
	st.next = (st.next + 1) % len(st.window)
}

// p99 of the window's current contents.
func (st *entryState) p99() float64 {
	n := len(st.window)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), st.window...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(0.99*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Monitor periodically sweeps every stored fingerprint and enqueues the
// ones whose rolling validation p99 crossed the staleness watermark.
// Safe for concurrent use; Run is the only blocking method.
type Monitor struct {
	p   Prober
	cfg Config

	stale chan string

	mu      sync.Mutex
	entries map[string]*entryState

	checks   atomic.Int64 // probes performed
	detected atomic.Int64 // healthy -> stale transitions
	dropped  atomic.Int64 // stale fingerprints lost to a full queue
}

// New builds a Monitor over p. It does not start sweeping: call Run.
func New(p Prober, cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	return &Monitor{
		p:       p,
		cfg:     cfg,
		stale:   make(chan string, cfg.QueueSize),
		entries: make(map[string]*entryState),
	}
}

// Stale is the queue of fingerprints flagged stale, each exactly once
// per healthy→stale transition. The channel is never closed: consumers
// select against their own shutdown signal.
func (m *Monitor) Stale() <-chan string { return m.stale }

// Checks counts probes performed since construction.
func (m *Monitor) Checks() int64 { return m.checks.Load() }

// Detected counts healthy→stale transitions since construction.
func (m *Monitor) Detected() int64 { return m.detected.Load() }

// Dropped counts stale fingerprints lost to a full queue.
func (m *Monitor) Dropped() int64 { return m.dropped.Load() }

// Run sweeps every Interval until ctx is done. It blocks; callers run
// it on its own goroutine.
func (m *Monitor) Run(ctx context.Context) {
	if m.cfg.Interval <= 0 {
		panic("drift: Monitor.Run without an Interval")
	}
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.Sweep(ctx)
		}
	}
}

// Sweep probes every stored fingerprint once: Runs validation
// executions into its rolling window, flag on crossing the staleness
// watermark, re-arm on recovering below the lower one. Exposed so tests
// (and deterministic drills) can drive sweeps without the ticker.
func (m *Monitor) Sweep(ctx context.Context) {
	fps := m.p.Fingerprints()
	m.prune(fps)
	for _, fp := range fps {
		if ctx.Err() != nil {
			return
		}
		e2e, slo, err := m.p.Probe(fp, m.cfg.Runs)
		m.checks.Add(1)
		if err != nil || slo <= 0 || len(e2e) == 0 {
			continue
		}
		if fp, stale := m.observe(fp, e2e, slo); stale {
			select {
			case m.stale <- fp:
			default:
				m.dropped.Add(1)
			}
		}
	}
}

// observe folds one probe into the fingerprint's window and reports
// whether this probe flipped it healthy→stale.
func (m *Monitor) observe(fp string, e2e []float64, slo float64) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.entries[fp]
	if !ok {
		st = &entryState{}
		m.entries[fp] = st
	}
	for _, v := range e2e {
		st.add(v, m.cfg.Window)
	}
	ratio := st.p99() / slo
	switch {
	case !st.flagged && ratio >= m.cfg.Threshold:
		st.flagged = true
		m.detected.Add(1)
		return fp, true
	case st.flagged && ratio < m.cfg.Threshold*m.cfg.Hysteresis:
		st.flagged = false
	}
	return fp, false
}

// prune drops state for fingerprints no longer stored (invalidated or
// evicted), so a re-added entry starts with a fresh window.
func (m *Monitor) prune(live []string) {
	alive := make(map[string]struct{}, len(live))
	for _, fp := range live {
		alive[fp] = struct{}{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for fp := range m.entries {
		if _, ok := alive[fp]; !ok {
			delete(m.entries, fp)
		}
	}
}
