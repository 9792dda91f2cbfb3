// Batched admission: a burst of *distinct* fingerprints would pay one
// full search each, serially from each caller's point of view. The batch
// path fingerprints every item up front, answers store hits immediately,
// dedupes repeats within the batch, and runs the remaining misses on one
// experiments.Pool run, whose per-cell determinism makes batched results
// byte-identical to sequential singleton requests. A miss enters the same
// flight (flightGroup.do) as a singleton miss when a pool worker starts
// it, so no caller ever waits on an item still queued. Errors are
// isolated per item: one bad spec fails only its slot.

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
	type miss struct {
		item     int
		specJSON []byte
		r        resolved
	}
	var misses []miss

	// Identify: resolve and fingerprint every item, answer store hits,
	// collect the misses. Item-level failures stop here, in their slot.
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
		misses = append(misses, miss{item: i, specJSON: specJSON, r: r})
	}

	// Run: one pooled run; each miss enters its flight when a worker
	// starts it. The callback never returns an error (that would stop the
	// pool starting later items), and a panic fails only its slot.
	if len(misses) > 0 {
		s.batchRuns.Add(1)
		_ = s.batch.Do(len(misses), func(k int) error {
			m := misses[k]
			res := &results[m.item]
			defer func() {
				if p := recover(); p != nil {
					res.Err = fmt.Errorf("service: search for %s panicked: %v", res.Fingerprint, p)
				}
			}()
			res.Body, res.Err = s.flight.do(ctx, res.Fingerprint, func() ([]byte, error) {
				return s.searchMiss(ctx, res.Fingerprint, items[m.item].Spec, m.specJSON, m.r, false)
			})
			return nil
		})
	}

	// Inherit: duplicates copy their first occurrence's outcome.
	for i, j := range dups {
		results[i].Body = results[j].Body
		results[i].CacheHit = results[j].CacheHit
		results[i].Err = results[j].Err
	}
	return results, nil
}
