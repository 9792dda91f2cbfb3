package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aarc/internal/store"
)

// fakeClock is a mutex-guarded manual clock for breaker cooldown tests:
// no sleeps, no flakes.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestFaultyScriptConsumedInOrder(t *testing.T) {
	boom := errors.New("boom")
	f := store.NewFaulty(store.NewMemory(4), store.FaultConfig{})
	f.Script(boom, nil, store.ErrInjected)

	if err := f.Put(key(1), entry(1)); !errors.Is(err, boom) {
		t.Errorf("scripted op 1: err = %v, want boom", err)
	}
	if err := f.Put(key(1), entry(1)); err != nil {
		t.Errorf("scripted op 2 (nil slot): err = %v", err)
	}
	if _, _, err := f.Get(key(1)); !errors.Is(err, store.ErrInjected) {
		t.Errorf("scripted op 3: err = %v, want ErrInjected", err)
	}
	// Script drained: quiescent pass-through again.
	if got, ok, err := f.Get(key(1)); err != nil || !ok || !bytes.Equal(got.Body, entry(1).Body) {
		t.Errorf("post-script Get = ok=%v err=%v", ok, err)
	}
	if f.Injected() != 2 {
		t.Errorf("Injected = %d, want 2", f.Injected())
	}
}

func TestFaultySwitchAndRecover(t *testing.T) {
	f := store.NewFaulty(store.NewMemory(4), store.FaultConfig{})
	if err := f.Put(key(1), entry(1)); err != nil {
		t.Fatal(err)
	}
	f.FailAll(nil)
	if _, _, err := f.Get(key(1)); !errors.Is(err, store.ErrInjected) {
		t.Errorf("FailAll Get err = %v", err)
	}
	if err := f.Delete(key(1)); !errors.Is(err, store.ErrInjected) {
		t.Errorf("FailAll Delete err = %v", err)
	}
	f.Recover()
	if _, ok, err := f.Get(key(1)); err != nil || !ok {
		t.Errorf("recovered Get = ok=%v err=%v", ok, err)
	}
}

func TestFaultyDeterministicProbabilityStream(t *testing.T) {
	cfg := store.FaultConfig{GetFailProb: 0.5, Seed: 7}
	a := store.NewFaulty(store.NewMemory(4), cfg)
	b := store.NewFaulty(store.NewMemory(4), cfg)
	var seqA, seqB []bool
	for i := 0; i < 64; i++ {
		_, _, errA := a.Get(key(1))
		_, _, errB := b.Get(key(1))
		seqA = append(seqA, errA != nil)
		seqB = append(seqB, errB != nil)
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("same-seed wrappers diverged at op %d", i)
		}
	}
	if a.Injected() == 0 || a.Injected() == 64 {
		t.Errorf("prob 0.5 over 64 ops injected %d faults — stream looks degenerate", a.Injected())
	}
}

// TestFaultyTornWriteAndRetryRepair: a torn Put leaves a truncated entry
// beneath the failure; a Retry wrapper's next attempt overwrites it with
// the full bytes — the repair path for partial writes.
func TestFaultyTornWriteAndRetryRepair(t *testing.T) {
	inner := store.NewMemory(4)
	f := store.NewFaulty(inner, store.FaultConfig{TornWrites: true})
	f.Script(store.ErrInjected)

	want := entry(1)
	if err := f.Put(key(1), want); !errors.Is(err, store.ErrInjected) {
		t.Fatalf("torn Put err = %v", err)
	}
	torn, ok, err := inner.Get(key(1))
	if err != nil || !ok {
		t.Fatalf("torn write left nothing beneath: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(torn.Body, want.Body[:len(want.Body)/2]) {
		t.Errorf("torn body = %q, want the truncated first half", torn.Body)
	}

	// The same failure under Retry: attempt 2 overwrites the torn entry.
	inner2 := store.NewMemory(4)
	f2 := store.NewFaulty(inner2, store.FaultConfig{TornWrites: true})
	f2.Script(store.ErrInjected)
	r := store.NewRetry(f2, store.RetryConfig{})
	if err := r.Put(key(1), want); err != nil {
		t.Fatalf("retried torn Put: %v", err)
	}
	got, ok, err := inner2.Get(key(1))
	if err != nil || !ok || !bytes.Equal(got.Body, want.Body) || !bytes.Equal(got.Meta, want.Meta) {
		t.Errorf("retry did not repair the torn entry: ok=%v err=%v body=%q", ok, err, got.Body)
	}
	if r.Retries() != 1 {
		t.Errorf("Retries = %d, want 1", r.Retries())
	}
}

func TestRetryRecoversTransientFaults(t *testing.T) {
	f := store.NewFaulty(store.NewMemory(4), store.FaultConfig{})
	r := store.NewRetry(f, store.RetryConfig{})
	if err := r.Put(key(1), entry(1)); err != nil {
		t.Fatal(err)
	}

	// Two injected failures, then clean: the third attempt lands.
	f.Script(store.ErrInjected, store.ErrInjected)
	got, ok, err := r.Get(key(1))
	if err != nil || !ok {
		t.Fatalf("Get across transient faults = ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got.Body, entry(1).Body) {
		t.Errorf("recovered Get returned wrong body %q", got.Body)
	}
	if r.Retries() != 2 {
		t.Errorf("Retries = %d, want 2", r.Retries())
	}
}

func TestRetryBoundedAndSurfacesPermanentFaults(t *testing.T) {
	boom := errors.New("disk on fire")
	f := store.NewFaulty(store.NewMemory(4), store.FaultConfig{})
	f.FailAll(boom)
	r := store.NewRetry(f, store.RetryConfig{Attempts: 4})
	if _, _, err := r.Get(key(1)); !errors.Is(err, boom) {
		t.Errorf("permanent-fault Get err = %v, want boom", err)
	}
	if f.Ops() != 4 {
		t.Errorf("permanent fault consumed %d attempts, want exactly 4", f.Ops())
	}
	if r.Retries() != 3 {
		t.Errorf("Retries = %d, want 3", r.Retries())
	}
}

func TestRetryTerminalErrorsNotRetried(t *testing.T) {
	mem := store.NewMemory(4)
	f := store.NewFaulty(mem, store.FaultConfig{})
	r := store.NewRetry(f, store.RetryConfig{})
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Get(key(1)); !errors.Is(err, store.ErrClosed) {
		t.Errorf("closed Get err = %v", err)
	}
	if f.Ops() != 1 {
		t.Errorf("ErrClosed was retried: %d attempts", f.Ops())
	}

	// ErrBreakerOpen is equally terminal: retrying into an open breaker
	// would stack backoff latency onto the path the breaker keeps cheap.
	f2 := store.NewFaulty(store.NewMemory(4), store.FaultConfig{})
	f2.FailAll(store.ErrBreakerOpen)
	r2 := store.NewRetry(f2, store.RetryConfig{})
	if _, _, err := r2.Get(key(1)); !errors.Is(err, store.ErrBreakerOpen) {
		t.Errorf("breaker-open Get err = %v", err)
	}
	if f2.Ops() != 1 {
		t.Errorf("ErrBreakerOpen was retried: %d attempts", f2.Ops())
	}
}

func TestBreakerOpensAfterThresholdAndFailsFast(t *testing.T) {
	var logs []string
	var logMu sync.Mutex
	f := store.NewFaulty(store.NewMemory(4), store.FaultConfig{})
	f.FailAll(nil)
	b := store.NewBreaker(f, store.BreakerConfig{
		Threshold: 3,
		Cooldown:  time.Hour,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})

	// K failures pass through to the inner store and trip the breaker.
	for i := 0; i < 3; i++ {
		if _, _, err := b.Get(key(1)); !errors.Is(err, store.ErrInjected) {
			t.Fatalf("failure %d: err = %v", i, err)
		}
	}
	if got := b.State(); got != store.BreakerOpen {
		t.Fatalf("state after %d failures = %v, want open", 3, got)
	}
	// Open: ops are refused without touching the inner store.
	opsBefore := f.Ops()
	for i := 0; i < 5; i++ {
		if _, _, err := b.Get(key(1)); !errors.Is(err, store.ErrBreakerOpen) {
			t.Fatalf("open-state Get err = %v, want ErrBreakerOpen", err)
		}
		if err := b.Put(key(1), entry(1)); !errors.Is(err, store.ErrBreakerOpen) {
			t.Fatalf("open-state Put err = %v, want ErrBreakerOpen", err)
		}
	}
	if f.Ops() != opsBefore {
		t.Errorf("open breaker still reached the inner store (%d -> %d ops)", opsBefore, f.Ops())
	}
	if b.FastFails() != 10 {
		t.Errorf("FastFails = %d, want 10", b.FastFails())
	}
	if b.Transitions() != 1 {
		t.Errorf("Transitions = %d, want 1", b.Transitions())
	}
	logMu.Lock()
	defer logMu.Unlock()
	if len(logs) != 1 || !strings.Contains(logs[0], "closed -> open") {
		t.Errorf("transition log = %q, want one closed -> open line", logs)
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	clock := newFakeClock()
	f := store.NewFaulty(store.NewMemory(4), store.FaultConfig{})
	b := store.NewBreaker(f, store.BreakerConfig{
		Threshold: 2,
		Cooldown:  10 * time.Second,
		Clock:     clock.now,
	})

	f.FailAll(nil)
	for i := 0; i < 2; i++ {
		_, _, _ = b.Get(key(1))
	}
	if b.State() != store.BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}

	// Cooldown not yet elapsed: still refusing.
	clock.advance(9 * time.Second)
	if _, _, err := b.Get(key(1)); !errors.Is(err, store.ErrBreakerOpen) {
		t.Fatalf("pre-cooldown Get err = %v", err)
	}

	// Cooldown elapsed: State reports half-open before any op probes.
	clock.advance(2 * time.Second)
	if b.State() != store.BreakerHalfOpen {
		t.Fatalf("post-cooldown State = %v, want half-open", b.State())
	}

	// Probe while the fault persists: back to open, cooldown restarted.
	if _, _, err := b.Get(key(1)); !errors.Is(err, store.ErrInjected) {
		t.Fatalf("failing probe err = %v, want the inner fault", err)
	}
	if b.State() != store.BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	if _, _, err := b.Get(key(1)); !errors.Is(err, store.ErrBreakerOpen) {
		t.Fatalf("reopened breaker admitted an op: %v", err)
	}

	// Fault clears, cooldown elapses again: the probe closes the breaker.
	f.Recover()
	clock.advance(11 * time.Second)
	if err := b.Put(key(1), entry(1)); err != nil {
		t.Fatalf("recovering probe Put: %v", err)
	}
	if b.State() != store.BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	if got, ok, err := b.Get(key(1)); err != nil || !ok || !bytes.Equal(got.Body, entry(1).Body) {
		t.Errorf("closed-again Get = ok=%v err=%v", ok, err)
	}
	// closed->open, open->half-open, half-open->open, open->half-open,
	// half-open->closed.
	if b.Transitions() != 5 {
		t.Errorf("Transitions = %d, want 5", b.Transitions())
	}
}

// gatedStore holds Get calls on a gate so a test can keep an op —
// breaker-side, a half-open probe — deterministically in flight.
type gatedStore struct {
	store.Store
	mu      sync.Mutex
	gate    chan struct{} // nil: pass straight through
	entered chan struct{} // signaled when a gated Get starts
}

func (g *gatedStore) Get(key string) (store.Entry, bool, error) {
	g.mu.Lock()
	gate, entered := g.gate, g.entered
	g.mu.Unlock()
	if gate != nil {
		entered <- struct{}{}
		<-gate
	}
	return g.Store.Get(key)
}

// TestBreakerHalfOpenAdmitsOneProbe: while the half-open probe is in
// flight, concurrent ops are refused rather than stampeding the
// recovering tier.
func TestBreakerHalfOpenAdmitsOneProbe(t *testing.T) {
	clock := newFakeClock()
	f := store.NewFaulty(store.NewMemory(4), store.FaultConfig{})
	g := &gatedStore{Store: f}
	b := store.NewBreaker(g, store.BreakerConfig{Threshold: 1, Cooldown: time.Second, Clock: clock.now})

	f.FailAll(nil)
	_, _, _ = b.Get(key(1)) // trip: closed -> open
	f.Recover()
	clock.advance(2 * time.Second)

	// Arm the gate and launch the probe: it is admitted, then parks
	// inside the inner store until the gate opens.
	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	g.mu.Lock()
	g.gate, g.entered = gate, entered
	g.mu.Unlock()
	probeDone := make(chan error, 1)
	go func() {
		_, _, err := b.Get(key(1))
		probeDone <- err
	}()
	<-entered // the probe is in flight

	// A concurrent op during the probe must fast-fail, not join it. (A
	// wrongly admitted op would park on the gate and return nil after
	// release — caught below.)
	if _, _, err := b.Get(key(1)); !errors.Is(err, store.ErrBreakerOpen) {
		t.Errorf("op during half-open probe: err = %v, want ErrBreakerOpen", err)
	}

	close(gate)
	if err := <-probeDone; err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if b.State() != store.BreakerClosed {
		t.Fatalf("state after probe = %v, want closed", b.State())
	}
}

// TestResilientStackEndToEnd drives NewDurable's stack,
// Tiered(Memory, Breaker(Retry(disk))), with its default settings over a
// disk that fails every op after one healthy Put, then through recovery.
// It pins the order: each inversion fails one reading.
//
//   - Retry(Breaker(disk)) opens the breaker on the 2nd failing Put, not
//     the 5th: each retry attempt counts against the threshold.
//   - Breaker(disk) without Retry reads 0 retries.
//   - Retry(disk) without Breaker reports no breaker state.
//   - Breaker outside Tiered fast-fails the key the memory tier holds.
func TestResilientStackEndToEnd(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	faulty := store.NewFaulty(disk, store.FaultConfig{})
	st := store.NewDurable(faulty, 128, store.BreakerConfig{Clock: clock.now})
	defer st.Close()

	// A healthy write lands in both tiers.
	if err := st.Put(key(0), entry(0)); err != nil {
		t.Fatal(err)
	}

	// Outage: each failing Put is one breaker failure and one retry
	// burst of 3 disk ops; the 5th opens the breaker.
	faulty.FailAll(nil)
	opsBefore := faulty.Ops()
	for i := 1; i <= 5; i++ {
		if err := st.Put(key(i), entry(i)); !errors.Is(err, store.ErrInjected) {
			t.Fatalf("failing Put %d: err = %v, want ErrInjected", i, err)
		}
		want := store.BreakerClosed.String()
		if i == 5 {
			want = store.BreakerOpen.String()
		}
		if got := store.StatsOf(st).Breaker; got != want {
			t.Fatalf("breaker after %d failing Puts = %q, want %q", i, got, want)
		}
	}
	if got := store.StatsOf(st).Retries; got != 10 {
		t.Errorf("Retries after 5 failing Puts = %d, want 10", got)
	}
	if got := faulty.Ops() - opsBefore; got != 15 {
		t.Errorf("5 failing Puts made %d disk ops, want 15", got)
	}

	// Open: a 6th Put fails fast without reaching the disk.
	opsBefore = faulty.Ops()
	if err := st.Put(key(6), entry(6)); !errors.Is(err, store.ErrBreakerOpen) {
		t.Errorf("Put while open: err = %v, want ErrBreakerOpen", err)
	}
	if got := faulty.Ops() - opsBefore; got != 0 {
		t.Errorf("Put while open reached the disk %d times, want 0", got)
	}

	// The memory tier keeps serving what it holds.
	if got, ok, err := st.Get(key(0)); err != nil || !ok || !bytes.Equal(got.Body, entry(0).Body) {
		t.Fatalf("memory-held Get while open = ok=%v err=%v", ok, err)
	}

	// Recovery: the fault clears, the 15 s cooldown elapses, and the
	// half-open probe closes the breaker; the healthy write is on disk.
	faulty.Recover()
	clock.advance(16 * time.Second)
	if got := store.StatsOf(st).Breaker; got != store.BreakerHalfOpen.String() {
		t.Fatalf("breaker after cooldown = %q, want half-open", got)
	}
	if err := st.Put(key(7), entry(7)); err != nil {
		t.Fatalf("probe Put: %v", err)
	}
	if got := store.StatsOf(st).Breaker; got != store.BreakerClosed.String() {
		t.Errorf("breaker after the probe = %q, want closed", got)
	}
	for _, i := range []int{0, 7} {
		if got, ok, err := disk.Get(key(i)); err != nil || !ok || !bytes.Equal(got.Body, entry(i).Body) {
			t.Errorf("disk Get %d after recovery = ok=%v err=%v", i, ok, err)
		}
	}
}
