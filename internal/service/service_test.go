package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"aarc/internal/dag"
	"aarc/internal/perfmodel"
	"aarc/internal/resources"
	"aarc/internal/search"
	"aarc/internal/store"
	"aarc/internal/testutil"
	"aarc/internal/workflow"
	"aarc/internal/workloads"

	// Resolve the real methods through the registry, as cmd/aarcd does.
	_ "aarc/internal/baselines/naive"
	_ "aarc/internal/core"
)

// stubSearches counts every Search call of the "stub" method across the
// test binary, so tests can assert exactly-one-search-per-fingerprint.
var stubSearches atomic.Int64

// stubSearcher is a minimal registry method: one Evaluate of the base
// assignment, one recorded sample. Fast enough to run hundreds of times
// under -race.
type stubSearcher struct{}

func (stubSearcher) Name() string { return "Stub" }

func (stubSearcher) Search(ctx context.Context, ev search.Evaluator, opts search.Options) (search.Outcome, error) {
	stubSearches.Add(1)
	trace := search.NewTrace(ctx, "Stub", opts)
	base := ev.Base()
	res, err := ev.Evaluate(base)
	if err != nil {
		return search.Outcome{}, err
	}
	rerr := trace.Record(base, res, true, "stub")
	return search.Outcome{Best: base, Trace: trace, Final: res}, search.StopCause(rerr)
}

func init() {
	search.Register("stub", 1, func(seed uint64) search.Searcher { return stubSearcher{} })
	search.Register("failing", 1, func(seed uint64) search.Searcher { return failingSearcher{} })
}

// failingSearcher always errors: the regression vehicle for "failed
// searches never reach any store tier".
type failingSearcher struct{}

func (failingSearcher) Name() string { return "Failing" }

func (failingSearcher) Search(ctx context.Context, ev search.Evaluator, opts search.Options) (search.Outcome, error) {
	stubSearches.Add(1)
	return search.Outcome{}, errors.New("failing: search exploded")
}

// testSpec builds a tiny linear workflow whose SLO varies per variant, so
// tests can mint arbitrarily many distinct fingerprints cheaply.
func testSpec(t testing.TB, variant int) *workflow.Spec {
	t.Helper()
	g := dag.New()
	for _, id := range []string{"in", "out"} {
		if err := g.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("in", "out"); err != nil {
		t.Fatal(err)
	}
	profiles := make(map[string]perfmodel.Profile, 2)
	for _, id := range []string{"in", "out"} {
		profiles[id] = perfmodel.Profile{
			Name: id, CPUWorkMS: 500, ParallelFrac: 0.5, FootprintMB: 256, MinMemMB: 128,
		}
	}
	spec := &workflow.Spec{
		Name:     fmt.Sprintf("svc-test-%d", variant),
		G:        g,
		Profiles: profiles,
		SLOMS:    float64(5000 + variant),
		Base: resources.Assignment{
			"in":  {CPU: 4, MemMB: 4096},
			"out": {CPU: 4, MemMB: 4096},
		},
		Limits: resources.DefaultLimits(),
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

func stubService(t testing.TB, cfg Config) *Service {
	t.Helper()
	// Armed before New so the snapshot excludes the service's own
	// goroutines; cleanups run LIFO, so Close below completes before the
	// leak check fires. This covers every stubService-based test —
	// service, batch, resilience and lifecycle.
	testutil.VerifyNoLeaks(t)
	cfg.Method = "stub"
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func TestConfigureSingleflightOneSearchPerFingerprint(t *testing.T) {
	svc := stubService(t, Config{})
	spec := testSpec(t, 0)
	before := stubSearches.Load()

	const callers = 64
	var wg sync.WaitGroup
	recs := make([]*Recommendation, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i], _, errs[i] = svc.Configure(context.Background(), spec, RequestOptions{})
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := stubSearches.Load() - before; got != 1 {
		t.Errorf("%d concurrent Configure calls ran %d searches, want exactly 1", callers, got)
	}
	for i, rec := range recs {
		if rec.Fingerprint != recs[0].Fingerprint {
			t.Fatalf("caller %d got fingerprint %s, caller 0 got %s", i, rec.Fingerprint, recs[0].Fingerprint)
		}
	}
	if st := svc.Stats(); st.Searches != 1 || st.Entries != 1 {
		t.Errorf("stats after identical burst: %+v", st)
	}
}

func TestConfigureDistinctSpecsSearchOnceEach(t *testing.T) {
	svc := stubService(t, Config{})
	before := stubSearches.Load()

	const distinct = 8
	const callersPer = 8
	var wg sync.WaitGroup
	fps := make([]string, distinct*callersPer)
	for v := 0; v < distinct; v++ {
		spec := testSpec(t, v)
		for c := 0; c < callersPer; c++ {
			wg.Add(1)
			go func(idx int) {
				defer wg.Done()
				rec, _, err := svc.Configure(context.Background(), spec, RequestOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				fps[idx] = rec.Fingerprint
			}(v*callersPer + c)
		}
	}
	wg.Wait()

	if got := stubSearches.Load() - before; got != distinct {
		t.Errorf("%d distinct specs ran %d searches, want %d", distinct, got, distinct)
	}
	unique := make(map[string]bool)
	for _, fp := range fps {
		unique[fp] = true
	}
	if len(unique) != distinct {
		t.Errorf("got %d unique fingerprints, want %d", len(unique), distinct)
	}
}

func TestConfigureCacheHitRunsNoSearch(t *testing.T) {
	svc := stubService(t, Config{})
	spec := testSpec(t, 0)

	if _, hit, err := svc.Configure(context.Background(), spec, RequestOptions{}); err != nil || hit {
		t.Fatalf("priming call: hit=%v err=%v", hit, err)
	}
	before := stubSearches.Load()
	rec, hit, err := svc.Configure(context.Background(), spec, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second identical Configure was not a cache hit")
	}
	if got := stubSearches.Load() - before; got != 0 {
		t.Errorf("cache hit ran %d searches, want 0", got)
	}
	if rec == nil || len(rec.Assignment) == 0 {
		t.Fatalf("cache hit returned empty recommendation %+v", rec)
	}
	if st := svc.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestConfigureJSONByteIdenticalAcrossHits(t *testing.T) {
	svc := stubService(t, Config{})
	spec := testSpec(t, 0)

	miss, hit0, err := svc.ConfigureJSON(context.Background(), spec, RequestOptions{})
	if err != nil || hit0 {
		t.Fatalf("priming: hit=%v err=%v", hit0, err)
	}
	for i := 0; i < 3; i++ {
		got, hit, err := svc.ConfigureJSON(context.Background(), spec, RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Errorf("call %d not a hit", i)
		}
		if string(got) != string(miss) {
			t.Errorf("hit %d bytes differ from miss:\nmiss: %s\nhit:  %s", i, miss, got)
		}
	}
}

func TestLRUEvictionBoundsCache(t *testing.T) {
	const capacity = 4
	svc := stubService(t, Config{CacheSize: capacity})
	before := stubSearches.Load()

	const distinct = 10
	for v := 0; v < distinct; v++ {
		if _, _, err := svc.Configure(context.Background(), testSpec(t, v), RequestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.Entries != capacity {
		t.Errorf("cache holds %d entries, want bound %d", st.Entries, capacity)
	}
	if st.Evictions != distinct-capacity {
		t.Errorf("evictions = %d, want %d", st.Evictions, distinct-capacity)
	}

	// The oldest entry was evicted: configuring it again must search again.
	if _, hit, err := svc.Configure(context.Background(), testSpec(t, 0), RequestOptions{}); err != nil || hit {
		t.Fatalf("re-configure of evicted spec: hit=%v err=%v", hit, err)
	}
	// The newest entry is still cached: no extra search.
	if _, hit, err := svc.Configure(context.Background(), testSpec(t, distinct-1), RequestOptions{}); err != nil || !hit {
		t.Fatalf("newest entry should still be cached: hit=%v err=%v", hit, err)
	}
	if got := stubSearches.Load() - before; got != distinct+1 {
		t.Errorf("ran %d searches, want %d (%d distinct + 1 re-search of evicted)", got, distinct+1, distinct)
	}
}

func TestRequestOptionsChangeFingerprint(t *testing.T) {
	svc := stubService(t, Config{})
	spec := testSpec(t, 0)
	ctx := context.Background()

	base, _, err := svc.Configure(ctx, spec, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(7)
	variants := map[string]RequestOptions{
		"seed":        {Seed: &seed},
		"slo":         {SLOMS: 99999},
		"max_samples": {MaxSamples: 3},
		"scale":       {InputScale: 1.5},
	}
	seen := map[string]string{"base": base.Fingerprint}
	for name, ro := range variants {
		rec, _, err := svc.Configure(ctx, spec, ro)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for prev, fp := range seen {
			if rec.Fingerprint == fp {
				t.Errorf("options %q collide with %q on fingerprint %s", name, prev, fp)
			}
		}
		seen[name] = rec.Fingerprint
	}
}

func TestServerSideBudgetCap(t *testing.T) {
	svc, err := New(Config{Method: "aarc", MaxSamples: 5})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workloads.ByName("chatbot")
	if err != nil {
		t.Fatal(err)
	}
	// Request asks for more than the cap: the cap wins.
	rec, _, err := svc.Configure(context.Background(), spec, RequestOptions{MaxSamples: 500})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Samples > 5 {
		t.Errorf("server cap 5 allowed %d samples", rec.Samples)
	}
	// A tighter request stays tighter (distinct fingerprint, new search).
	rec2, _, err := svc.Configure(context.Background(), spec, RequestOptions{MaxSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Samples > 2 {
		t.Errorf("request cap 2 allowed %d samples", rec2.Samples)
	}
}

func TestEvaluateAndValidateOnShardedPool(t *testing.T) {
	svc := stubService(t, Config{Shards: 4})
	spec := testSpec(t, 0)
	rec, _, err := svc.Configure(context.Background(), spec, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent validations exercise every shard under -race.
	const callers = 16
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results, err := svc.Validate(rec.Fingerprint, 4)
			if err != nil {
				errs[i] = err
				return
			}
			for _, r := range results {
				if r.E2EMS <= 0 {
					errs[i] = fmt.Errorf("non-positive e2e %v", r.E2EMS)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("validator %d: %v", i, err)
		}
	}

	// What-if evaluation under an explicit assignment.
	a := resources.Assignment{
		"in":  {CPU: 1, MemMB: 512},
		"out": {CPU: 1, MemMB: 512},
	}
	results, err := svc.Evaluate(rec.Fingerprint, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}

	if _, err := svc.Validate("sha256:unknown", 1); err != ErrUnknownFingerprint {
		t.Errorf("unknown fingerprint error = %v, want ErrUnknownFingerprint", err)
	}
	if _, err := svc.Validate(rec.Fingerprint, MaxEvaluateRuns+1); !errors.Is(err, ErrTooManyRuns) {
		t.Errorf("oversized run count error = %v, want ErrTooManyRuns", err)
	}
}

func TestDispatchCachesEnginePerClassSet(t *testing.T) {
	svc := stubService(t, Config{})
	spec, err := workloads.ByName("video-analysis")
	if err != nil {
		t.Fatal(err)
	}
	before := stubSearches.Load()

	const callers = 16
	var wg sync.WaitGroup
	results := make([]*DispatchResult, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Scales spread across the three default classes.
			scale := 0.3 + float64(i%3)*0.6
			results[i], _, errs[i] = svc.Dispatch(context.Background(), spec, nil, scale, RequestOptions{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("dispatcher %d: %v", i, err)
		}
	}
	// One store entry per class, shared by all 16 dispatchers.
	if got := stubSearches.Load() - before; got != 3 {
		t.Errorf("16 concurrent Dispatch calls ran %d searches, want 3 (one per class)", got)
	}
	for i, r := range results {
		if r.Class == "" || len(r.Assignment) == 0 {
			t.Errorf("dispatcher %d got empty result %+v", i, r)
		}
	}

	// A class is an ordinary configure at the class's input scale: the
	// dispatch fingerprint is Configure's, and Configure hits it.
	for i, r := range results {
		rec, hit, err := svc.Configure(context.Background(), spec, RequestOptions{InputScale: r.ClassScale})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Fingerprint != r.Fingerprint || !hit {
			t.Errorf("dispatcher %d: Configure at class scale %v = %s (hit=%v), want a hit on %s",
				i, r.ClassScale, rec.Fingerprint, hit, r.Fingerprint)
		}
	}
}

func TestDispatchRejectsBadScale(t *testing.T) {
	svc := stubService(t, Config{})
	if _, _, err := svc.Dispatch(context.Background(), testSpec(t, 0), nil, 0, RequestOptions{}); err == nil {
		t.Error("Dispatch accepted scale 0")
	}
}

func TestConfigureRealMethodThroughService(t *testing.T) {
	svc, err := New(Config{Seed: 42, HostCores: 96, Noise: true, MaxSamples: 40})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workloads.ByName("chatbot")
	if err != nil {
		t.Fatal(err)
	}
	rec, hit, err := svc.Configure(context.Background(), spec, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first Configure reported a cache hit")
	}
	if rec.Method != "AARC" {
		t.Errorf("method = %s, want AARC", rec.Method)
	}
	if rec.Samples == 0 || rec.Samples > 40 {
		t.Errorf("samples = %d, want 1..40", rec.Samples)
	}
	if len(rec.Assignment) != len(spec.FunctionGroups()) {
		t.Errorf("assignment covers %d groups, want %d", len(rec.Assignment), len(spec.FunctionGroups()))
	}
}

func TestStatsReportStoreKindAndTiers(t *testing.T) {
	svc := stubService(t, Config{})
	spec := testSpec(t, 0)
	ctx := context.Background()
	if _, _, err := svc.Configure(ctx, spec, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, hit, err := svc.Configure(ctx, spec, RequestOptions{}); err != nil || !hit {
			t.Fatalf("repeat %d: hit=%v err=%v", i, hit, err)
		}
	}
	st := svc.Stats()
	if st.Hits != 3 || st.Misses != 1 || st.Searches != 1 {
		t.Errorf("counters = %+v, want 3 hits / 1 miss / 1 search", st)
	}
	if st.Store != "memory" || st.Tiers["memory"] != 1 || st.Entries != 1 {
		t.Errorf("store stats = %+v, want kind=memory with 1 entry", st)
	}
	if st.StoreErrors != 0 {
		t.Errorf("store errors = %d, want 0", st.StoreErrors)
	}
}

func TestStatsTieredKindOverCacheDir(t *testing.T) {
	svc := stubService(t, Config{CacheDir: t.TempDir(), CacheSize: 8})
	if _, _, err := svc.Configure(context.Background(), testSpec(t, 0), RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Store != "tiered" || st.Tiers["memory"] != 1 || st.Tiers["disk"] != 1 {
		t.Errorf("tiered stats = %+v, want memory=1 disk=1", st)
	}
	// The breaker state proves CacheDir builds store.NewDurable's stack.
	if st.BreakerState != "closed" {
		t.Errorf("BreakerState = %q, want closed", st.BreakerState)
	}
}

// spyStore records every write that reaches its tier, so tests can assert
// at the Store boundary — not just the service surface — that failure
// paths never touch storage.
type spyStore struct {
	store.Store
	puts atomic.Int64
}

func (s *spyStore) Put(k string, e store.Entry) error {
	s.puts.Add(1)
	return s.Store.Put(k, e)
}

func TestFailedSearchNeverWritesAnyTier(t *testing.T) {
	fast := &spyStore{Store: store.NewMemory(8)}
	disk, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	slow := &spyStore{Store: disk}
	svc, err := New(Config{Method: "failing", Store: store.NewTiered(fast, slow)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	spec := testSpec(t, 0)
	for i := 0; i < 3; i++ {
		if _, _, err := svc.Configure(context.Background(), spec, RequestOptions{}); err == nil {
			t.Fatal("failing method returned no error")
		}
	}
	if n := fast.puts.Load(); n != 0 {
		t.Errorf("failed searches wrote %d entries to the fast tier", n)
	}
	if n := slow.puts.Load(); n != 0 {
		t.Errorf("failed searches wrote %d entries to the slow tier", n)
	}
	if svc.Stats().Entries != 0 {
		t.Errorf("failed searches left %d stored entries", svc.Stats().Entries)
	}
	// The error is not sticky: a working method on the same service stores.
	if _, _, err := svc.Configure(context.Background(), spec, RequestOptions{Method: "stub"}); err != nil {
		t.Fatal(err)
	}
	if fast.puts.Load() != 1 || slow.puts.Load() != 1 {
		t.Errorf("successful search wrote fast=%d slow=%d times, want 1/1", fast.puts.Load(), slow.puts.Load())
	}
}

func TestWarmRestartServesPreviousFingerprints(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, 0)
	ctx := context.Background()

	first := stubService(t, Config{CacheDir: dir})
	body1, hit, err := first.ConfigureJSON(ctx, spec, RequestOptions{})
	if err != nil || hit {
		t.Fatalf("first process configure: hit=%v err=%v", hit, err)
	}
	var rec Recommendation
	if err := json.Unmarshal(body1, &rec); err != nil {
		t.Fatal(err)
	}
	dispatched, hit, err := first.Dispatch(ctx, spec, nil, 1.4, RequestOptions{})
	if err != nil || hit {
		t.Fatalf("first process dispatch: hit=%v err=%v", hit, err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	// A "restarted" process over the same directory: the same request is
	// a hit with byte-identical body and no search.
	second := stubService(t, Config{CacheDir: dir})
	before := stubSearches.Load()
	body2, hit, err := second.ConfigureJSON(ctx, spec, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("restarted service missed on a persisted fingerprint")
	}
	if string(body1) != string(body2) {
		t.Errorf("restart changed the body:\nbefore %s\nafter  %s", body1, body2)
	}
	// An already-dispatched class is a persisted entry like any other.
	redispatched, hit, err := second.Dispatch(ctx, spec, nil, 1.4, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit || redispatched.Fingerprint != dispatched.Fingerprint {
		t.Errorf("restarted dispatch = %s (hit=%v), want a hit on %s", redispatched.Fingerprint, hit, dispatched.Fingerprint)
	}
	if got := stubSearches.Load() - before; got != 0 {
		t.Errorf("restarted service ran %d searches, want 0", got)
	}

	// The fingerprint-addressed fast path works without any spec at all,
	// and evaluation rebuilds its runner pool from the stored metadata.
	fast, err := second.RecommendationJSON(rec.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if string(fast) != string(body1) {
		t.Error("fingerprint GET body differs from the original search body")
	}
	results, err := second.Validate(rec.Fingerprint, 3)
	if err != nil {
		t.Fatalf("Validate across restart: %v", err)
	}
	if len(results) != 3 || results[0].E2EMS <= 0 {
		t.Errorf("restart validation results %+v", results)
	}
}

func TestRecommendationJSONFastPathAndInvalidate(t *testing.T) {
	svc := stubService(t, Config{})
	spec := testSpec(t, 0)
	ctx := context.Background()

	if _, err := svc.RecommendationJSON("sha256:unknown"); err != ErrUnknownFingerprint {
		t.Errorf("unknown fingerprint error = %v, want ErrUnknownFingerprint", err)
	}
	body, _, err := svc.ConfigureJSON(ctx, spec, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var rec Recommendation
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	before := stubSearches.Load()
	got, err := svc.RecommendationJSON(rec.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(body) {
		t.Error("fast-path bytes differ from configure bytes")
	}
	if stubSearches.Load() != before {
		t.Error("fingerprint GET ran a search")
	}

	existed, err := svc.Invalidate(rec.Fingerprint)
	if err != nil || !existed {
		t.Fatalf("Invalidate: existed=%v err=%v", existed, err)
	}
	if _, err := svc.RecommendationJSON(rec.Fingerprint); err != ErrUnknownFingerprint {
		t.Errorf("post-invalidate error = %v, want ErrUnknownFingerprint", err)
	}
	if existed, _ := svc.Invalidate(rec.Fingerprint); existed {
		t.Error("second Invalidate claims the entry still existed")
	}
	// The next identical Configure re-searches.
	if _, hit, err := svc.Configure(ctx, spec, RequestOptions{}); err != nil || hit {
		t.Fatalf("post-invalidate configure: hit=%v err=%v", hit, err)
	}
	if got := stubSearches.Load() - before; got != 1 {
		t.Errorf("post-invalidate configure ran %d searches, want 1", got)
	}
}

func TestMethodVersionFoldsIntoFingerprint(t *testing.T) {
	svc := stubService(t, Config{})
	spec := testSpec(t, 0)
	r, err := svc.resolve(spec, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.version != 1 {
		t.Fatalf("stub method resolved version %d, want 1", r.version)
	}
	fp1, _, err := svc.fingerprint(spec, r)
	if err != nil {
		t.Fatal(err)
	}
	// The same request under a bumped implementation version must address
	// a different entry: stale recommendations self-invalidate.
	r.version = 2
	fp2, _, err := svc.fingerprint(spec, r)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 == fp2 {
		t.Error("bumping the method version did not change the fingerprint")
	}
}

func TestConfigureUnknownMethodFailsFast(t *testing.T) {
	svc := stubService(t, Config{})
	_, _, err := svc.Configure(context.Background(), testSpec(t, 0), RequestOptions{Method: "nope"})
	if err == nil {
		t.Fatal("unknown method did not error")
	}
	if svc.Stats().Misses != 0 {
		t.Error("unknown method was counted as a miss (fingerprinted before failing)")
	}
}

// TestStoreIsAuthorityForEvaluate: a fingerprint the store evicted is
// unknown to Evaluate and Validate exactly as it is to GET, even after an
// earlier Evaluate built its runner pool. Reading B before configuring C
// makes A the store's least recently used entry, whether or not Evaluate
// refreshes A's recency in the store.
func TestStoreIsAuthorityForEvaluate(t *testing.T) {
	svc := stubService(t, Config{CacheSize: 2})
	ctx := context.Background()
	configure := func(variant int) string {
		t.Helper()
		rec, _, err := svc.Configure(ctx, testSpec(t, variant), RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return rec.Fingerprint
	}
	a, b := configure(0), configure(1)
	if _, err := svc.Evaluate(a, nil, 1); err != nil {
		t.Fatalf("Evaluate(A) while A is stored: %v", err)
	}
	if _, err := svc.RecommendationJSON(b); err != nil {
		t.Fatal(err)
	}
	configure(2)

	if _, err := svc.RecommendationJSON(a); !errors.Is(err, ErrUnknownFingerprint) {
		t.Fatalf("GET A after configuring C: %v, want the store to have evicted A", err)
	}
	if _, err := svc.Evaluate(a, nil, 1); !errors.Is(err, ErrUnknownFingerprint) {
		t.Errorf("Evaluate(A) after the store evicted A: %v, want ErrUnknownFingerprint", err)
	}
	if _, err := svc.Validate(a, 1); !errors.Is(err, ErrUnknownFingerprint) {
		t.Errorf("Validate(A) after the store evicted A: %v, want ErrUnknownFingerprint", err)
	}
}

// TestConfigureHitsDoNotAliasRecommendation: every Configure call decodes
// its own Recommendation, so a caller writing to the one it got changes
// neither what later hits return nor what Validate evaluates.
func TestConfigureHitsDoNotAliasRecommendation(t *testing.T) {
	svc := stubService(t, Config{})
	spec, ctx := testSpec(t, 0), context.Background()
	hit := func() *Recommendation {
		t.Helper()
		rec, _, err := svc.Configure(ctx, spec, RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	hit() // the miss
	first, second := hit(), hit()
	if first == second {
		t.Error("two Configure hits returned the same *Recommendation")
	}
	want := maps.Clone(first.Assignment)
	clear(first.Assignment) // a caller's write: no group left configured

	if got := hit().Assignment; !maps.Equal(got, want) {
		t.Errorf("a caller's write leaked into a later hit: %v, want %v", got, want)
	}
	if _, err := svc.Validate(first.Fingerprint, 1); err != nil {
		t.Errorf("a caller's write leaked into Validate: %v", err)
	}
}

// TestRetainedHeapPerEntry caps what one configured fingerprint keeps
// alive: the stored body and meta, and little else. Each spec is
// generated, configured and dropped inside the loop, so anything the
// service keeps of it — a decoded spec, a second canonical JSON, a decoded
// recommendation — counts against the bound. Not parallel: it reads the
// process's live heap.
func TestRetainedHeapPerEntry(t *testing.T) {
	const entries = 64
	svc := stubService(t, Config{CacheSize: 2 * entries})
	ctx := context.Background()
	liveHeap := func() int64 {
		// Two cycles: the first moves sync.Pool caches to their victim
		// lists, the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	fps := make([]string, 0, entries)
	before := liveHeap()
	for i := 0; i < entries; i++ {
		spec, err := workloads.Scale(workloads.ScaleOptions{
			Topology: workloads.Topologies()[i%len(workloads.Topologies())],
			Nodes:    64,
			Seed:     uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		rec, _, err := svc.Configure(ctx, spec, RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, rec.Fingerprint)
	}
	grown := liveHeap() - before

	var stored int64
	for _, fp := range fps {
		se, ok, err := svc.st.Get(fp)
		if err != nil || !ok {
			t.Fatalf("entry %s: ok=%v err=%v", fp, ok, err)
		}
		stored += int64(len(se.Body) + len(se.Meta))
	}
	t.Logf("live heap grew %.1f KiB per entry against %.1f KiB stored", float64(grown)/entries/1024, float64(stored)/entries/1024)
	if grown > 2*stored {
		t.Errorf("live heap grew %d bytes for %d entries, more than twice their %d stored bytes", grown, entries, stored)
	}
}
