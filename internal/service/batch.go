// Batched admission: bursts of *distinct* fingerprints used to pay one
// full search each, serially from the caller's point of view. The batch
// path fingerprints every item up front, answers store hits immediately,
// dedupes repeats within the batch, and drives all remaining misses
// through one experiments.Pool run — the PR 1 worker-pool harness, whose
// per-cell determinism guarantees batched results are byte-identical to
// sequential singleton requests. Each miss is registered with the flight
// group per item, so concurrent singleton requests for a fingerprint the
// batch is searching attach to the batch's in-flight item (and vice
// versa: a batch item whose fingerprint is already in flight elsewhere
// waits instead of searching again). Errors are isolated per item: one
// bad spec fails only its slot.

package service

import (
	"context"
	"errors"
	"fmt"

	"aarc/internal/workflow"
)

// BatchItem is one configure request within a batch: a spec plus its
// per-request options, exactly the singleton Configure arguments.
type BatchItem struct {
	Spec    *workflow.Spec
	Options RequestOptions
}

// BatchResult is the per-item outcome of ConfigureBatch, index-aligned
// with the input items. Exactly one of Body and Err is meaningful: Body
// holds the stored deterministic JSON encoding (byte-identical to what a
// singleton Configure for the same item serves) when Err is nil.
// Duplicate items within one batch inherit the outcome of their first
// occurrence.
type BatchResult struct {
	Fingerprint string
	Body        []byte
	CacheHit    bool // answered from the store without searching or waiting
	Err         error
}

// Recommendation decodes the result body. It returns an error when the
// item itself failed.
func (r *BatchResult) Recommendation() (*Recommendation, error) {
	if r.Err != nil {
		return nil, r.Err
	}
	return decodeRecommendation(r.Body)
}

// MaxBatchItems bounds one ConfigureBatch call (and one
// POST /v1/configure:batch request): a batch is synchronous search work,
// so an unbounded client-controlled count would let a single request pin
// the daemon.
const MaxBatchItems = 256

// ErrBatchTooLarge is returned when a batch exceeds MaxBatchItems.
var ErrBatchTooLarge = fmt.Errorf("service: batch exceeds the per-request bound %d", MaxBatchItems)

// errNilSpec is the per-item error for a nil batch spec.
var errNilSpec = errors.New("service: batch item with nil spec")

// pendingSearch is one claimed miss awaiting a pooled batch run: the
// flight call it leads, and everything searchMiss needs to run it.
type pendingSearch struct {
	fp       string
	c        *flightCall
	spec     *workflow.Spec
	specJSON []byte
	r        resolved
}

// ConfigureBatch answers a batch of configure requests as one admission:
// per-item fingerprinting, immediate store hits, batch-internal dedupe,
// and a single pooled run (Config.BatchWorkers wide) over the remaining
// misses. The returned slice is index-aligned with items; a batch never
// fails as a whole for an item-level reason — per-item errors live in
// each slot — only for a malformed batch (too many items).
//
// Counters: every non-duplicate item is one hit or one miss; duplicates
// ride along uncounted.
func (s *Service) ConfigureBatch(ctx context.Context, items []BatchItem) ([]BatchResult, error) {
	if len(items) > MaxBatchItems {
		return nil, ErrBatchTooLarge
	}
	results := make([]BatchResult, len(items))
	firstOf := make(map[string]int, len(items)) // fingerprint -> first item index
	dups := make(map[int]int)                   // duplicate item index -> first index
	var runs []*pendingSearch                   // misses this batch leads
	type attached struct {
		item int
		c    *flightCall
	}
	var waits []attached // misses already in flight elsewhere

	// The batch leads every flight in runs, so — like the singleton
	// leader's deferred abandon — a panic anywhere between a claim and its
	// finish must publish the sentinel instead of wedging the fingerprint
	// for every future caller. After a clean pass every flight is
	// finished and abandon is a no-op.
	defer func() {
		for _, p := range runs {
			s.flight.abandon(p.fp, p.c)
		}
	}()

	// Phase 1 — identify: resolve and fingerprint every item, answer store
	// hits, claim the misses. Item-level failures stop here, in their slot.
	for i := range items {
		it := &items[i]
		if it.Spec == nil {
			results[i].Err = errNilSpec
			continue
		}
		r, err := s.resolve(it.Spec, it.Options)
		if err != nil {
			results[i].Err = err
			continue
		}
		fp, specJSON, err := s.fingerprint(it.Spec, r)
		if err != nil {
			results[i].Err = err
			continue
		}
		results[i].Fingerprint = fp
		if j, ok := firstOf[fp]; ok {
			dups[i] = j
			continue
		}
		firstOf[fp] = i
		if se, ok := s.getStore(fp); ok {
			s.hits.Add(1)
			results[i].Body = se.Body
			results[i].CacheHit = true
			continue
		}
		s.misses.Add(1)
		if c, leader := s.flight.claim(fp); leader {
			runs = append(runs, &pendingSearch{fp: fp, c: c, spec: it.Spec, specJSON: specJSON, r: r})
		} else {
			waits = append(waits, attached{item: i, c: c})
		}
	}

	// Phase 2 — run: one pooled run over the misses this batch leads. The
	// pool is a barrier, so every flight in runs is finished afterwards and
	// its published result can be read without waiting.
	if len(runs) > 0 {
		s.runPending(ctx, runs)
		for _, p := range runs {
			i := firstOf[p.fp]
			if p.c.err != nil {
				results[i].Err = p.c.err
			} else {
				results[i].Body = p.c.val.([]byte)
			}
		}
	}

	// Phase 3 — attach: wait on fingerprints some other caller (a
	// singleton leader, another batch) is searching.
	// This comes after the pooled run so two batches leading disjoint
	// subsets of each other's fingerprints release one another.
	for _, a := range waits {
		results[a.item].Body, results[a.item].Err = s.flightResult(ctx, a.c)
	}

	// Phase 4 — duplicates inherit their first occurrence's outcome.
	for i, j := range dups {
		results[i].Body = results[j].Body
		results[i].CacheHit = results[j].CacheHit
		results[i].Err = results[j].Err
	}
	return results, nil
}

// runPending drives one pooled batch run over claimed misses. Each item
// finishes its own flight as it completes, so singleton callers attached
// to any one fingerprint are released by that item, not by the whole
// batch; the pool's worker bound caps how many searches run at once.
func (s *Service) runPending(ctx context.Context, runs []*pendingSearch) {
	s.batchRuns.Add(1)
	// Per-item error isolation: the pool callback never returns an error
	// (which would stop the pool from claiming later items) — failures
	// travel inside each item's flight instead.
	_ = s.batch.Do(len(runs), func(i int) error {
		s.searchPending(ctx, runs[i])
		return nil
	})
}

// searchPending runs one claimed miss and finishes its flight, always: a
// panicking search (a malformed spec tripping an invariant deep in the
// runner) is recovered into that item's error, so one bad item can
// neither leak a claimed flight nor take down the pool worker.
func (s *Service) searchPending(ctx context.Context, p *pendingSearch) {
	defer func() {
		if r := recover(); r != nil {
			s.flight.finish(p.fp, p.c, nil, fmt.Errorf("service: search for %s panicked: %v", p.fp, r))
		}
	}()
	body, err := s.searchMiss(ctx, p.fp, p.spec, p.specJSON, p.r, false)
	s.flight.finish(p.fp, p.c, body, err)
}
