package service

// Degraded-path tests: the service keeps serving — and never poisons its
// cache — while the store misbehaves, searches wedge, or handlers panic.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aarc/internal/search"
	"aarc/internal/store"
	"aarc/internal/workloads"
)

// wedgedSearcher wedges its first Search call — it parks on a channel
// and ignores its context entirely — and behaves like stubSearcher
// afterwards: the adversarial case the server-side search deadline must
// survive without leaking the singleflight claim or the admission slot.
var (
	wedgeStarted chan struct{}
	wedgeForever chan struct{}
	wedgeCalls   atomic.Int64
)

type wedgedSearcher struct{}

func (wedgedSearcher) Name() string { return "Wedged" }

func (wedgedSearcher) Search(ctx context.Context, ev search.Evaluator, opts search.Options) (search.Outcome, error) {
	if wedgeCalls.Add(1) == 1 {
		wedgeStarted <- struct{}{}
		<-wedgeForever
	}
	return stubSearcher{}.Search(ctx, ev, opts)
}

// panickySearcher panics mid-search: the regression vehicle for the
// recovery middleware and the flightGroup panic sentinel.
type panickySearcher struct{}

func (panickySearcher) Name() string { return "Panicky" }

func (panickySearcher) Search(ctx context.Context, ev search.Evaluator, opts search.Options) (search.Outcome, error) {
	panic("panicky: searcher exploded")
}

func init() {
	search.Register("wedged", 1, func(seed uint64) search.Searcher { return wedgedSearcher{} })
	search.Register("panicky", 1, func(seed uint64) search.Searcher { return panickySearcher{} })
}

// TestConfigureDegradesStoreReadFaults: a store whose every op fails
// must not take Configure down — reads degrade to misses, writes to a
// counter, and the search path still answers.
func TestConfigureDegradesStoreReadFaults(t *testing.T) {
	faulty := store.NewFaulty(store.NewMemory(16), store.FaultConfig{})
	faulty.FailAll(nil)
	svc := stubService(t, Config{Store: faulty})
	spec := testSpec(t, 0)

	rec, hit, err := svc.Configure(context.Background(), spec, RequestOptions{})
	if err != nil {
		t.Fatalf("Configure during total store outage: %v", err)
	}
	if hit {
		t.Fatal("Configure reported a cache hit from an all-failing store")
	}
	if rec.Fingerprint == "" {
		t.Fatal("Configure served an empty recommendation")
	}
	if got := svc.Stats().StoreErrors; got == 0 {
		t.Fatal("store outage left StoreErrors at 0")
	}

	// Recovered store: the failed writes were degraded, not cached, so
	// the next Configure re-searches and this time persists.
	faulty.Recover()
	before := stubSearches.Load()
	if _, hit, err = svc.Configure(context.Background(), spec, RequestOptions{}); err != nil || hit {
		t.Fatalf("post-recovery Configure: hit=%v err=%v", hit, err)
	}
	if _, hit, err = svc.Configure(context.Background(), spec, RequestOptions{}); err != nil || !hit {
		t.Fatalf("second post-recovery Configure: hit=%v err=%v", hit, err)
	}
	if got := stubSearches.Load() - before; got != 1 {
		t.Fatalf("post-recovery searches = %d, want 1", got)
	}
}

// TestWriteFaultsNeverPoisonCache: a store that fails every Put serves
// each Configure from its own search — and byte-identically, because
// failed writes leave no partial entry to serve later.
func TestWriteFaultsNeverPoisonCache(t *testing.T) {
	faulty := store.NewFaulty(store.NewMemory(16), store.FaultConfig{PutFailProb: 1})
	svc := stubService(t, Config{Store: faulty})
	spec := testSpec(t, 0)

	first, _, err := svc.ConfigureJSON(context.Background(), spec, RequestOptions{})
	if err != nil {
		t.Fatalf("Configure with failing writes: %v", err)
	}
	if n := faulty.Len(); n != 0 {
		t.Fatalf("store holds %d entries after failed writes, want 0", n)
	}
	// The runtime pool cache still remembers the entry in-process; the
	// store itself must stay empty so no other process (and no restart)
	// ever sees a write that reported failure.
	second, hit, err := svc.ConfigureJSON(context.Background(), spec, RequestOptions{})
	if err != nil {
		t.Fatalf("second Configure: %v", err)
	}
	if hit {
		t.Fatal("cache hit served from a store whose every Put failed")
	}
	if !bytes.Equal(first, second) {
		t.Fatal("re-searched recommendation differs from the first")
	}
}

// fakeClock is a manual clock for the breaker's cooldown: the test
// advances it instead of sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

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

// TestOpenBreakerServesMemoryOnly is the headline degradation contract,
// over store.NewDurable's stack with its default settings (the breaker
// opens on 5 failures and probes after 15 s) and a fake clock. With the
// disk tier hard down: cold configures still answer and their disk
// failures open the breaker; /healthz stays 200 and reports the open
// breaker and the retries spent; /readyz answers 503 with a reason; a
// configure made during the outage repeats as a byte-identical hit; and
// a 64-way concurrent burst against a fingerprint warmed before the
// outage completes with zero errors and byte-identical bodies without
// touching the disk. After the fault clears and the cooldown passes, the
// next cold configure's first disk op is the half-open probe, and its
// success closes the breaker and turns /readyz back to 200.
func TestOpenBreakerServesMemoryOnly(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faulty := store.NewFaulty(disk, store.FaultConfig{})
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	svc, ts := newTestServer(t, Config{Store: store.NewDurable(faulty, 128, store.BreakerConfig{Clock: clock.now, Logf: t.Logf})})
	spec := testSpec(t, 0)
	configure := func(variant int) (*http.Response, []byte) {
		t.Helper()
		return postJSON(t, ts.URL+"/v1/configure", fmt.Sprintf(`{"spec": %s}`, specBody(t, variant)))
	}
	health := func() Stats {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h struct{ Stats Stats }
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz: status %d, err %v; want 200 with stats", resp.StatusCode, err)
		}
		return h.Stats
	}
	readyz := func() (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	// Warm one fingerprint while healthy: it lands in both tiers.
	want, _, err := svc.ConfigureJSON(context.Background(), spec, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Disk goes hard down. Cold configures still succeed (the memory tier
	// takes the writes), and their disk failures open the breaker: each
	// is a read, a re-check and a write, so the second one opens it.
	faulty.FailAll(nil)
	var outageBody []byte
	for i := 1; i <= 2; i++ {
		resp, b := configure(i)
		var rec Recommendation
		if err := json.Unmarshal(b, &rec); resp.StatusCode != http.StatusOK || err != nil || len(rec.Assignment) == 0 {
			t.Fatalf("cold configure %d during disk outage: status %d, body %.200s", i, resp.StatusCode, b)
		}
		outageBody = b
	}
	if hs := health(); hs.BreakerState != "open" || hs.Retries == 0 {
		t.Fatalf("/healthz during outage: breaker_state %q, retries %d; want open with retries > 0", hs.BreakerState, hs.Retries)
	}
	if code, body := readyz(); code != http.StatusServiceUnavailable || !strings.Contains(body, "breaker") {
		t.Fatalf("/readyz while breaker open = %d %s, want 503 naming the breaker", code, body)
	}

	// The configure made during the outage repeats as a hit, byte for
	// byte, off the dead disk.
	if resp, b := configure(2); resp.Header.Get("X-Aarc-Cache") != "hit" || !bytes.Equal(b, outageBody) {
		t.Fatalf("repeat during outage: X-Aarc-Cache %q, same bytes %v; want a byte-identical hit",
			resp.Header.Get("X-Aarc-Cache"), bytes.Equal(b, outageBody))
	}

	// 64-way burst against the warm fingerprint: all served from memory,
	// byte-identical, zero errors — and zero ops reach the dead disk
	// (the open breaker and the fast tier short-circuit it).
	opsBefore := faulty.Ops()
	const burst = 64
	var wg sync.WaitGroup
	errs := make([]error, burst)
	bodies := make([][]byte, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], _, errs[i] = svc.ConfigureJSON(context.Background(), spec, RequestOptions{})
		}(i)
	}
	wg.Wait()
	for i := 0; i < burst; i++ {
		if errs[i] != nil {
			t.Fatalf("burst caller %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], want) {
			t.Fatalf("burst caller %d served different bytes", i)
		}
	}
	if got := faulty.Ops() - opsBefore; got != 0 {
		t.Fatalf("burst reached the dead disk %d times, want 0 (fast-fail)", got)
	}

	// Fault clears; once the cooldown has passed the breaker reports
	// half-open, and the next cold configure's probe closes it.
	faulty.Recover()
	clock.advance(16 * time.Second)
	if got := svc.BreakerState(); got != "half-open" {
		t.Fatalf("breaker state after cooldown = %q, want half-open", got)
	}
	if resp, b := configure(3); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery configure: status %d, body %.200s", resp.StatusCode, b)
	}
	if hs := health(); hs.BreakerState != "closed" {
		t.Fatalf("/healthz after the probe: breaker_state %q, want closed", hs.BreakerState)
	}
	if code, body := readyz(); code != http.StatusOK {
		t.Fatalf("/readyz after recovery = %d %s, want 200", code, body)
	}
}

// TestSearchTimeoutReleasesFlightAndSlot: a searcher that ignores its
// context past SearchTimeout fails the leader and every follower with a
// timeout error, caches nothing, and releases both the singleflight
// claim and the admission slot — proved by a follow-up Configure on the
// same fingerprint succeeding with MaxConcurrentSearches=1.
func TestSearchTimeoutReleasesFlightAndSlot(t *testing.T) {
	svc := stubService(t, Config{
		SearchTimeout:         100 * time.Millisecond,
		MaxConcurrentSearches: 1,
	})
	wedgeCalls.Store(0)
	wedgeStarted = make(chan struct{}, 1)
	wedgeForever = make(chan struct{})
	// Registered after stubService so LIFO cleanup releases the wedged
	// searcher goroutine before the leak check armed in there fires.
	t.Cleanup(func() { close(wedgeForever) })
	ro := RequestOptions{Method: "wedged"}
	spec := testSpec(t, 0)

	var (
		leaderErr   error
		followerErr error
		wg          sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, leaderErr = svc.Configure(context.Background(), spec, ro)
	}()
	<-wedgeStarted
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, followerErr = svc.Configure(context.Background(), spec, ro)
	}()
	wg.Wait()

	for who, err := range map[string]error{"leader": leaderErr, "follower": followerErr} {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s error = %v, want DeadlineExceeded", who, err)
		}
	}
	if n := svc.st.Len(); n != 0 {
		t.Fatalf("timed-out search cached %d entries, want 0", n)
	}
	if got := svc.Stats().SearchTimeouts; got == 0 {
		t.Fatal("SearchTimeouts counter did not move")
	}
	// Flight and slot released: the same fingerprint configures cleanly
	// (the wedged searcher delegates to stub from its second call on).
	if _, _, err := svc.Configure(context.Background(), spec, ro); err != nil {
		t.Fatalf("Configure after a timed-out leader: %v", err)
	}
}

// TestSearchTimeoutEndsDetourListing: a real AARC search whose detour
// listing would run for seconds (the layered 112-node Scale spec, seed 4)
// answers DeadlineExceeded at SearchTimeout, caches nothing, and its
// search goroutine ends with it rather than running on in the
// background: the leak check stubService arms would find it otherwise.
func TestSearchTimeoutEndsDetourListing(t *testing.T) {
	svc := stubService(t, Config{SearchTimeout: 200 * time.Millisecond, HostCores: 96, Noise: true})
	spec, err := workloads.Scale(workloads.ScaleOptions{Topology: workloads.TopologyLayered, Nodes: 112, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = svc.ConfigureJSON(context.Background(), spec, RequestOptions{Method: "aarc"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if n := svc.st.Len(); n != 0 {
		t.Fatalf("timed-out search cached %d entries, want 0", n)
	}
}

// TestLoadSheddingFailFast: with every admission slot busy, a
// deadline-less singleton miss is refused immediately with
// ErrOverloaded; on the wire that is 429 with a Retry-After hint. A
// deadline-carrying miss waits, then sheds at its deadline.
func TestLoadSheddingFailFast(t *testing.T) {
	gateStarted = make(chan struct{}, 8)
	gateRelease = make(chan struct{})
	svc := stubService(t, Config{
		SearchTimeout:         2 * time.Second,
		MaxConcurrentSearches: 1,
	})
	handler := NewHandler(svc)
	ro := RequestOptions{Method: "gate"}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := svc.Configure(context.Background(), testSpec(t, 0), ro); err != nil {
			t.Errorf("gated Configure: %v", err)
		}
	}()
	<-gateStarted // the slot is now held inside a parked search

	if _, _, err := svc.Configure(context.Background(), testSpec(t, 1), ro); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("deadline-less miss at saturation = %v, want ErrOverloaded", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	if _, _, err := svc.Configure(ctx, testSpec(t, 2), ro); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("deadline-carrying miss at saturation = %v, want ErrOverloaded after waiting", err)
	}
	cancel()
	// A dispatch miss is a configure miss: shed the same way.
	if err := dispatchWithin(t, svc, ro); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("dispatch miss at saturation = %v, want ErrOverloaded", err)
	}

	for path, body := range map[string]string{
		"/v1/configure": `{"workload":"chatbot","method":"gate"}`,
		"/v1/dispatch":  `{"workload":"video-analysis","method":"gate","scale":1.4}`,
	} {
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if rr.Code != http.StatusTooManyRequests {
			t.Fatalf("shed %s status = %d, want 429", path, rr.Code)
		}
		if ra := rr.Header().Get("Retry-After"); ra != "2" {
			t.Fatalf("%s Retry-After = %q, want %q (one search deadline)", path, ra, "2")
		}
	}
	if got := svc.Stats().ShedRequests; got < 3 {
		t.Fatalf("ShedRequests = %d, want >= 3", got)
	}

	close(gateRelease)
	wg.Wait()
}

// dispatchWithin dispatches video-analysis at scale 1.4 and returns the
// error, failing the test after five seconds: a dispatch that ignores the
// admission cap or the search deadline must fail the tests, not hang them.
func dispatchWithin(t *testing.T, svc *Service, ro RequestOptions) error {
	t.Helper()
	spec, err := workloads.ByName("video-analysis")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := svc.Dispatch(context.Background(), spec, nil, 1.4, ro)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("Dispatch still running after 5s")
		return nil
	}
}

// TestDispatchSearchTimeout: SearchTimeout bounds a dispatch search like
// any other: DeadlineExceeded, HTTP 504.
func TestDispatchSearchTimeout(t *testing.T) {
	gateStarted = make(chan struct{}, 8)
	gateRelease = make(chan struct{})
	svc := stubService(t, Config{SearchTimeout: 20 * time.Millisecond})
	// Registered after stubService so LIFO cleanup releases the parked
	// searches before the leak check armed in there fires.
	t.Cleanup(func() { close(gateRelease) })

	if err := dispatchWithin(t, svc, RequestOptions{Method: "gate"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("gated dispatch error = %v, want DeadlineExceeded", err)
	}
	body := `{"workload":"video-analysis","method":"gate","scale":1.4}`
	rr := httptest.NewRecorder()
	NewHandler(svc).ServeHTTP(rr, httptest.NewRequest("POST", "/v1/dispatch", strings.NewReader(body)))
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out dispatch HTTP status = %d, want 504", rr.Code)
	}
}

// TestReadyzDrain: /readyz flips to 503 the moment a drain begins, while
// /healthz (liveness) stays 200 — the split that keeps balancers away
// without getting the process killed.
func TestReadyzDrain(t *testing.T) {
	svc := stubService(t, Config{})
	handler := NewHandler(svc)

	get := func(path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr
	}
	if rr := get("/readyz"); rr.Code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", rr.Code)
	}
	svc.BeginDrain()
	rr := get("/readyz")
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "draining") {
		t.Fatalf("/readyz drain body gives no reason: %s", rr.Body.String())
	}
	if rr := get("/healthz"); rr.Code != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200 (still alive)", rr.Code)
	}
}

// TestPanicRecoveredAs500: a panicking searcher answers 500 with a JSON
// error body instead of a torn connection, and is counted. Run twice to
// prove the flightGroup key is not wedged by the panic either.
func TestPanicRecoveredAs500(t *testing.T) {
	svc := stubService(t, Config{})
	handler := NewHandler(svc)

	for attempt := 1; attempt <= 2; attempt++ {
		body := `{"workload":"chatbot","method":"panicky"}`
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/configure", strings.NewReader(body)))
		if rr.Code != http.StatusInternalServerError {
			t.Fatalf("attempt %d: status = %d, want 500", attempt, rr.Code)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("attempt %d: 500 body is not the JSON error envelope: %s", attempt, rr.Body.String())
		}
		if got := svc.Stats().Panics; got != int64(attempt) {
			t.Fatalf("attempt %d: Stats.Panics = %d, want %d", attempt, got, attempt)
		}
	}
}

// TestPanicUnderSearchTimeout: the deadline goroutine re-raises searcher
// panics on the request goroutine, so the recovery middleware and the
// panics counter behave identically with and without a timeout.
func TestPanicUnderSearchTimeout(t *testing.T) {
	svc := stubService(t, Config{SearchTimeout: time.Second})
	handler := NewHandler(svc)

	body := `{"workload":"chatbot","method":"panicky"}`
	rr := httptest.NewRecorder()
	handler.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/configure", strings.NewReader(body)))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	if got := svc.Stats().Panics; got != 1 {
		t.Fatalf("Stats.Panics = %d, want 1", got)
	}
}

// TestStatsCarriesResilienceFields: the new observability fields survive
// the JSON round trip under their documented names.
func TestStatsCarriesResilienceFields(t *testing.T) {
	svc := stubService(t, Config{})
	b, err := json.Marshal(svc.Stats())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"retries", "shed_requests", "search_timeouts", "panics", "breaker_state"} {
		if !strings.Contains(string(b), fmt.Sprintf("%q", field)) {
			t.Fatalf("Stats JSON missing %q: %s", field, b)
		}
	}
	if svc.BreakerState() != "none" {
		t.Fatalf("memory-only BreakerState = %q, want none", svc.BreakerState())
	}
}
