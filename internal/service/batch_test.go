package service

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aarc/internal/search"
)

// gaugeSearcher measures search concurrency: tests assert that a batch of
// N distinct specs never runs more than pool-width searches at once. The
// short sleep keeps each search in flight long enough for overlap to be
// observable.
var (
	gaugeCur atomic.Int64
	gaugeMax atomic.Int64
)

type gaugeSearcher struct{}

func (gaugeSearcher) Name() string { return "Gauge" }

func (gaugeSearcher) Search(ctx context.Context, ev search.Evaluator, opts search.Options) (search.Outcome, error) {
	cur := gaugeCur.Add(1)
	defer gaugeCur.Add(-1)
	for {
		m := gaugeMax.Load()
		if cur <= m || gaugeMax.CompareAndSwap(m, cur) {
			break
		}
	}
	time.Sleep(5 * time.Millisecond)
	return stubSearcher{}.Search(ctx, ev, opts)
}

// gateSearcher parks every search on a test-controlled gate, so tests can
// hold a search in flight while other callers arrive. gateStarted and
// gateRelease are reset by each test before any search can run.
var (
	gateStarted  chan struct{}
	gateRelease  chan struct{}
	gateSearches atomic.Int64
)

type gateSearcher struct{}

func (gateSearcher) Name() string { return "Gate" }

func (gateSearcher) Search(ctx context.Context, ev search.Evaluator, opts search.Options) (search.Outcome, error) {
	gateSearches.Add(1)
	gateStarted <- struct{}{}
	<-gateRelease
	return stubSearcher{}.Search(ctx, ev, opts)
}

func init() {
	search.Register("gauge", 1, func(seed uint64) search.Searcher { return gaugeSearcher{} })
	search.Register("gate", 1, func(seed uint64) search.Searcher { return gateSearcher{} })
}

// TestConfigureBatchMatchesSingletonBytes is the determinism contract: a
// batch of N distinct specs runs through the worker pool, yet every
// item's body is byte-identical to what sequential singleton requests on
// an identically-configured service serve — per-cell seeding is a pure
// function of the item, never of pool scheduling.
func TestConfigureBatchMatchesSingletonBytes(t *testing.T) {
	const distinct = 6
	batchSvc := stubService(t, Config{BatchWorkers: 3})
	singleSvc := stubService(t, Config{})

	items := make([]BatchItem, distinct)
	for i := range items {
		items[i] = BatchItem{Spec: testSpec(t, i)}
	}
	before := stubSearches.Load()
	results, err := batchSvc.ConfigureBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if got := stubSearches.Load() - before; got != distinct {
		t.Errorf("batch of %d distinct specs ran %d searches, want %d", distinct, got, distinct)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("item %d: %v", i, res.Err)
		}
		if res.CacheHit {
			t.Errorf("item %d of a cold batch reported a cache hit", i)
		}
		body, hit, err := singleSvc.ConfigureJSON(context.Background(), testSpec(t, i), RequestOptions{})
		if err != nil || hit {
			t.Fatalf("singleton %d: hit=%v err=%v", i, hit, err)
		}
		if !bytes.Equal(res.Body, body) {
			t.Errorf("item %d batched body differs from the singleton body:\nbatch:     %s\nsingleton: %s", i, res.Body, body)
		}
	}
	st := batchSvc.Stats()
	if st.BatchRuns != 1 || st.Misses != distinct || st.Entries != distinct {
		t.Errorf("stats after one cold batch: %+v", st)
	}

	// The same batch again is all store hits: no search, no pooled run.
	before = stubSearches.Load()
	results, err = batchSvc.ConfigureBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil || !res.CacheHit {
			t.Errorf("warm item %d: hit=%v err=%v", i, res.CacheHit, res.Err)
		}
	}
	if got := stubSearches.Load() - before; got != 0 {
		t.Errorf("warm batch ran %d searches, want 0", got)
	}
	if st := batchSvc.Stats(); st.BatchRuns != 1 {
		t.Errorf("warm batch started a pooled run: %+v", st)
	}
}

// TestConfigureBatchConcurrencyBounded asserts the pool-width cap: 8
// distinct cold specs through a 2-worker batch never exceed 2 concurrent
// searches.
func TestConfigureBatchConcurrencyBounded(t *testing.T) {
	svc := stubService(t, Config{BatchWorkers: 2})
	gaugeMax.Store(0)

	items := make([]BatchItem, 8)
	for i := range items {
		items[i] = BatchItem{Spec: testSpec(t, i), Options: RequestOptions{Method: "gauge"}}
	}
	results, err := svc.ConfigureBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("item %d: %v", i, res.Err)
		}
	}
	if m := gaugeMax.Load(); m < 1 || m > 2 {
		t.Errorf("batch of 8 ran %d concurrent searches, want 1..2 (pool width 2)", m)
	}
}

// TestConfigureBatchDedupAndHits: repeats within one batch search once
// and inherit the first occurrence's outcome; already-stored fingerprints
// answer as immediate hits without entering the pooled run.
func TestConfigureBatchDedupAndHits(t *testing.T) {
	svc := stubService(t, Config{})
	ctx := context.Background()
	primed := testSpec(t, 0)
	primedBody, _, err := svc.ConfigureJSON(ctx, primed, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}

	fresh := testSpec(t, 1)
	before := stubSearches.Load()
	st0 := svc.Stats()
	results, err := svc.ConfigureBatch(ctx, []BatchItem{
		{Spec: primed}, // store hit
		{Spec: fresh},  // the one real miss
		{Spec: fresh},  // batch-internal duplicate of the miss
		{Spec: primed}, // batch-internal duplicate of the hit
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := stubSearches.Load() - before; got != 1 {
		t.Errorf("batch with one unique miss ran %d searches, want 1", got)
	}
	// Duplicates ride along uncounted: one hit, one miss, one pooled run.
	st := svc.Stats()
	if d := st.Hits - st0.Hits; d != 1 {
		t.Errorf("batch counted %d hits, want 1", d)
	}
	if d := st.Misses - st0.Misses; d != 1 {
		t.Errorf("batch counted %d misses, want 1", d)
	}
	if d := st.BatchRuns - st0.BatchRuns; d != 1 {
		t.Errorf("batch counted %d pooled runs, want 1", d)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("item %d: %v", i, res.Err)
		}
	}
	if !results[0].CacheHit || !bytes.Equal(results[0].Body, primedBody) {
		t.Errorf("primed item: hit=%v", results[0].CacheHit)
	}
	if results[1].CacheHit {
		t.Error("fresh item reported a cache hit")
	}
	if results[2].CacheHit || !bytes.Equal(results[2].Body, results[1].Body) {
		t.Errorf("duplicate of the miss: hit=%v, bodies equal=%v",
			results[2].CacheHit, bytes.Equal(results[2].Body, results[1].Body))
	}
	if !results[3].CacheHit || !bytes.Equal(results[3].Body, primedBody) {
		t.Errorf("duplicate of the hit: hit=%v", results[3].CacheHit)
	}
	if results[1].Fingerprint != results[2].Fingerprint {
		t.Error("duplicate items carry different fingerprints")
	}
}

// TestConfigureBatchPerItemErrorIsolation: a nil spec, an unknown method
// and a failing search each fail exactly their own slot.
func TestConfigureBatchPerItemErrorIsolation(t *testing.T) {
	svc := stubService(t, Config{})
	results, err := svc.ConfigureBatch(context.Background(), []BatchItem{
		{Spec: nil},
		{Spec: testSpec(t, 0), Options: RequestOptions{Method: "nope"}},
		{Spec: testSpec(t, 1), Options: RequestOptions{Method: "failing"}},
		{Spec: testSpec(t, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, errNilSpec) {
		t.Errorf("nil-spec item error = %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("unknown-method item did not error")
	}
	if results[2].Err == nil {
		t.Error("failing-search item did not error")
	}
	if results[3].Err != nil || len(results[3].Body) == 0 {
		t.Errorf("healthy item: err=%v body=%d bytes", results[3].Err, len(results[3].Body))
	}
	// A failed search stores nothing: only the healthy item is cached.
	if st := svc.Stats(); st.Entries != 1 {
		t.Errorf("entries after isolated failures = %d, want 1", st.Entries)
	}
}

func TestConfigureBatchSizeBounds(t *testing.T) {
	svc := stubService(t, Config{})
	if results, err := svc.ConfigureBatch(context.Background(), nil); err != nil || len(results) != 0 {
		t.Errorf("empty batch: results=%v err=%v", results, err)
	}
	oversized := make([]BatchItem, MaxBatchItems+1)
	if _, err := svc.ConfigureBatch(context.Background(), oversized); !errors.Is(err, ErrBatchTooLarge) {
		t.Errorf("oversized batch error = %v, want ErrBatchTooLarge", err)
	}
}

// TestSingletonAttachesToBatchSearch: a singleton Configure arriving
// while a batch is searching the same fingerprint attaches to the batch's
// in-flight item instead of searching again.
func TestSingletonAttachesToBatchSearch(t *testing.T) {
	svc := stubService(t, Config{})
	gateStarted = make(chan struct{}, 8)
	gateRelease = make(chan struct{})
	spec := testSpec(t, 0)
	gated := RequestOptions{Method: "gate"}
	before := gateSearches.Load()

	var batchResults []BatchResult
	var batchErr error
	batchDone := make(chan struct{})
	go func() {
		defer close(batchDone)
		batchResults, batchErr = svc.ConfigureBatch(context.Background(), []BatchItem{{Spec: spec, Options: gated}})
	}()
	<-gateStarted // the batch's search is in flight and holds the claim

	var singleBody []byte
	var singleErr error
	singleDone := make(chan struct{})
	go func() {
		defer close(singleDone)
		singleBody, _, singleErr = svc.ConfigureJSON(context.Background(), testSpec(t, 0), gated)
	}()
	// The singleton counts its miss before claiming the flight: once the
	// second miss is visible it can only attach (the claim is held until
	// the batch item finishes) or, post-finish, read the store.
	for svc.Stats().Misses < 2 {
		time.Sleep(time.Millisecond)
	}
	close(gateRelease)
	<-batchDone
	<-singleDone

	if batchErr != nil || singleErr != nil {
		t.Fatalf("batch err=%v singleton err=%v", batchErr, singleErr)
	}
	if got := gateSearches.Load() - before; got != 1 {
		t.Errorf("batch + attached singleton ran %d searches, want 1", got)
	}
	if !bytes.Equal(batchResults[0].Body, singleBody) {
		t.Error("attached singleton body differs from the batch item body")
	}
}

// TestBatchAttachesToSingletonSearch is the mirror image: a batch item
// whose fingerprint a singleton request is already searching waits for
// that flight; the rest of the batch searches normally.
func TestBatchAttachesToSingletonSearch(t *testing.T) {
	svc := stubService(t, Config{})
	gateStarted = make(chan struct{}, 8)
	gateRelease = make(chan struct{})
	shared := testSpec(t, 0)
	gated := RequestOptions{Method: "gate"}
	before := gateSearches.Load()

	var singleBody []byte
	var singleErr error
	singleDone := make(chan struct{})
	go func() {
		defer close(singleDone)
		singleBody, _, singleErr = svc.ConfigureJSON(context.Background(), shared, gated)
	}()
	<-gateStarted // the singleton leader is in flight

	var results []BatchResult
	var batchErr error
	batchDone := make(chan struct{})
	go func() {
		defer close(batchDone)
		results, batchErr = svc.ConfigureBatch(context.Background(), []BatchItem{
			{Spec: testSpec(t, 0), Options: gated}, // in flight at the singleton
			{Spec: testSpec(t, 1)},                 // fresh: searched by the batch (stub)
		})
	}()
	// Both batch misses are counted before the pool starts. The shared
	// item waits inside its worker for the singleton's search; the fresh
	// one is searched by whichever worker starts it.
	for svc.Stats().Misses < 3 {
		time.Sleep(time.Millisecond)
	}
	close(gateRelease)
	<-singleDone
	<-batchDone

	if singleErr != nil || batchErr != nil {
		t.Fatalf("singleton err=%v batch err=%v", singleErr, batchErr)
	}
	if got := gateSearches.Load() - before; got != 1 {
		t.Errorf("singleton + attached batch item ran %d gated searches, want 1", got)
	}
	if !bytes.Equal(results[0].Body, singleBody) {
		t.Error("attached batch item body differs from the singleton body")
	}
	if results[1].Err != nil || len(results[1].Body) == 0 {
		t.Errorf("fresh batch item: err=%v body=%d bytes", results[1].Err, len(results[1].Body))
	}
}

// TestBatchQueuedItemDoesNotBlockSingleton is the head-of-line
// regression test: a singleton request for a fingerprint that a batch
// has queued but not started searches it itself, instead of waiting
// behind the batch's earlier items. The batch's item then reads the
// stored result.
func TestBatchQueuedItemDoesNotBlockSingleton(t *testing.T) {
	svc := stubService(t, Config{BatchWorkers: 1})
	gateStarted = make(chan struct{}, 8)
	gateRelease = make(chan struct{})
	x := testSpec(t, 0) // gated: holds the batch's only worker
	y := testSpec(t, 1) // stub: queued behind x

	var results []BatchResult
	var batchErr error
	batchDone := make(chan struct{})
	go func() {
		defer close(batchDone)
		results, batchErr = svc.ConfigureBatch(context.Background(), []BatchItem{
			{Spec: x, Options: RequestOptions{Method: "gate"}},
			{Spec: y},
		})
	}()
	<-gateStarted // x is searching; y waits for the worker

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	body, _, err := svc.ConfigureJSON(ctx, y, RequestOptions{})
	elapsed := time.Since(start)
	close(gateRelease)
	<-batchDone

	if err != nil {
		t.Fatalf("singleton for a fingerprint queued in a batch: %v after %.2fs", err, elapsed.Seconds())
	}
	if batchErr != nil || results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("batch err=%v, items: %v, %v", batchErr, results[0].Err, results[1].Err)
	}
	if !bytes.Equal(results[1].Body, body) {
		t.Error("batch's y slot differs from the singleton body")
	}
	if got := svc.Stats().Searches; got != 2 {
		t.Errorf("searches = %d, want 2 (x by the batch, y by the singleton)", got)
	}
}

// TestConfigureBatchCrossedBatches: two one-worker batches over the same
// two fingerprints, in opposite orders, both complete and share the two
// searches. Each batch enters a fingerprint's flight only when it starts
// that item, and a running search waits on no other flight, so neither
// batch can wait on work the other has only queued.
func TestConfigureBatchCrossedBatches(t *testing.T) {
	svc := stubService(t, Config{BatchWorkers: 1})
	gateStarted = make(chan struct{}, 8)
	gateRelease = make(chan struct{})
	gated := RequestOptions{Method: "gate"}
	x := BatchItem{Spec: testSpec(t, 0), Options: gated}
	y := BatchItem{Spec: testSpec(t, 1), Options: gated}
	before := gateSearches.Load()

	orders := [][]BatchItem{{x, y}, {y, x}}
	results := make([][]BatchResult, len(orders))
	errs := make([]error, len(orders))
	var wg sync.WaitGroup
	for i, items := range orders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = svc.ConfigureBatch(context.Background(), items)
		}()
	}
	// Hold the first search until both batches have counted their misses,
	// so the other batch starts its first item while that search runs.
	<-gateStarted
	for svc.Stats().Misses < 4 {
		time.Sleep(time.Millisecond)
	}
	close(gateRelease)
	wg.Wait()

	for i := range orders {
		if errs[i] != nil {
			t.Fatalf("batch %d: %v", i, errs[i])
		}
		for j, res := range results[i] {
			if res.Err != nil {
				t.Fatalf("batch %d item %d: %v", i, j, res.Err)
			}
		}
	}
	if !bytes.Equal(results[0][0].Body, results[1][1].Body) || !bytes.Equal(results[0][1].Body, results[1][0].Body) {
		t.Error("crossed batches served different bodies for one fingerprint")
	}
	if got := gateSearches.Load() - before; got != 2 {
		t.Errorf("crossed batches ran %d searches, want 2", got)
	}
}

// TestConfigureBatchPanickingItem: a panicking search fails only its own
// slot, and it releases its flight: the same batch again searches the
// panicking item afresh (its slot names the panic again, not the
// abandoned-flight sentinel) while the healthy item is a store hit.
func TestConfigureBatchPanickingItem(t *testing.T) {
	svc := stubService(t, Config{BatchWorkers: 1})
	items := []BatchItem{
		{Spec: testSpec(t, 0), Options: RequestOptions{Method: "panicky"}},
		{Spec: testSpec(t, 1)},
	}
	for run := 1; run <= 2; run++ {
		results, err := svc.ConfigureBatch(context.Background(), items)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if err := results[0].Err; err == nil || !strings.Contains(err.Error(), "panicked: panicky: searcher exploded") {
			t.Errorf("run %d: panicking slot error = %v, want one naming the panic", run, err)
		}
		if results[1].Err != nil || len(results[1].Body) == 0 {
			t.Errorf("run %d: healthy slot: err=%v body=%d bytes", run, results[1].Err, len(results[1].Body))
		}
		if hit := results[1].CacheHit; hit != (run == 2) {
			t.Errorf("run %d: healthy slot cache hit = %v", run, hit)
		}
	}
	// Run 1 searched both items, run 2 the panicking one again.
	if got := svc.Stats().Searches; got != 3 {
		t.Errorf("searches = %d, want 3", got)
	}
}

func TestBatchResultRecommendation(t *testing.T) {
	svc := stubService(t, Config{})
	results, err := svc.ConfigureBatch(context.Background(), []BatchItem{{Spec: testSpec(t, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := results[0].Recommendation()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Fingerprint != results[0].Fingerprint || len(rec.Assignment) == 0 {
		t.Errorf("decoded recommendation %+v", rec)
	}
	failed := BatchResult{Err: errors.New("nope")}
	if _, err := failed.Recommendation(); err == nil {
		t.Error("Recommendation on a failed item did not error")
	}
}
