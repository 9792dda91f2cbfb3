package service

import (
	"context"
	"encoding/json"
	"log"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"aarc/internal/drift"
	"aarc/internal/event"
	"aarc/internal/search"
)

// This file is the recommendation lifecycle: the event bus the service
// publishes into where it writes the store (putStore, Invalidate), the
// drift monitor's view of the service, and the background refresher
// that re-searches stale entries and atomically swaps them — old bytes
// serve until the swap, no request ever observes a miss or a torn
// entry. The event Kind vocabulary (put, refreshed, invalidated) is
// documented on internal/event.

// Event is a recommendation lifecycle notification. See internal/event
// for the kind vocabulary.
type Event = event.Event

// Watch subscribes to a fingerprint's lifecycle events ("" watches every
// fingerprint). The returned channel is closed when the subscription
// ends; cancel is idempotent and must be called to release the
// subscriber. When ctx is cancellable the subscription is torn down with
// it. A subscriber that stops draining its channel loses events (counted
// in Stats.EventsDropped) rather than blocking publishers.
func (s *Service) Watch(ctx context.Context, fp string) (<-chan Event, func(), error) {
	sub, err := s.bus.Subscribe(fp, s.cfg.WatchBuffer)
	if err != nil {
		return nil, nil, err
	}
	s.watchSubs.Add(1)
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			sub.Cancel()
			s.watchSubs.Add(-1)
		})
	}
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				cancel()
			case <-sub.Done():
			}
		}()
	}
	return sub.Events(), cancel, nil
}

// ReplayEvents returns the buffered events for fp ("" = all) with
// sequence numbers greater than after, oldest first — the Last-Event-ID
// resume path of GET /v1/watch/{fp}. Events older than the bus's ring
// are gone; clients that need a full picture re-read the entry.
func (s *Service) ReplayEvents(fp string, after uint64) []Event {
	return s.bus.Replay(fp, after)
}

// RecommendationInfo is one stored entry's listing line (GET
// /v1/recommendations): enough for a watcher to bootstrap — what is
// cached, under which method and version, against which SLO, and how
// old it is — without fetching every body.
type RecommendationInfo struct {
	Fingerprint   string  `json:"fingerprint"`
	Workflow      string  `json:"workflow,omitempty"`
	Method        string  `json:"method,omitempty"`
	MethodVersion int     `json:"method_version,omitempty"`
	SLOMS         float64 `json:"slo_ms,omitempty"`
	SLOCompliant  bool    `json:"slo_compliant"`
	Samples       int     `json:"samples,omitempty"`
	AgeS          float64 `json:"age_s,omitempty"`
}

// Recommendations lists every stored entry, sorted by fingerprint. An
// entry deleted between the key scan and its read is skipped; an entry
// whose body or meta does not decode is listed by fingerprint alone
// (age and method are best-effort — old processes' entries lack the
// lifecycle meta fields).
func (s *Service) Recommendations() []RecommendationInfo {
	keys := s.st.Keys()
	sort.Strings(keys)
	now := time.Now().UnixMilli()
	out := make([]RecommendationInfo, 0, len(keys))
	for _, fp := range keys {
		se, ok := s.getStore(fp)
		if !ok {
			continue
		}
		info := RecommendationInfo{Fingerprint: fp}
		var rec Recommendation
		if json.Unmarshal(se.Body, &rec) == nil {
			info.Workflow = rec.Workflow
			info.Method = rec.Method
			info.SLOMS = rec.SLOMS
			info.SLOCompliant = rec.SLOCompliant
			info.Samples = rec.Samples
		}
		var m entryMeta
		if json.Unmarshal(se.Meta, &m) == nil {
			info.MethodVersion = m.MethodVersion
			if m.CreatedUnixMS > 0 {
				info.AgeS = float64(now-m.CreatedUnixMS) / 1000
			}
		}
		out = append(out, info)
	}
	return out
}

// lifecycleProber adapts the Service to the drift monitor's Prober:
// fingerprints come from the store's key index, and probes run on the
// entry's sharded runner pool via evaluateN, the same path Evaluate and
// Validate use, under the assignment and SLO decoded from the stored
// body.
type lifecycleProber struct{ s *Service }

// Keys() order is unspecified; sorted so every sweep probes entries in
// the same order and a bounded stale queue fills deterministically.
func (p lifecycleProber) Fingerprints() []string {
	keys := p.s.st.Keys()
	sort.Strings(keys)
	return keys
}

func (p lifecycleProber) Probe(fp string, runs int) ([]float64, float64, error) {
	se, pool, err := p.s.entryFor(fp)
	if err != nil {
		return nil, 0, err
	}
	rec, err := decodeRecommendation(se.Body)
	if err != nil {
		return nil, 0, err
	}
	results, err := pool.evaluateN(rec.ResourceAssignment(), runs)
	if err != nil {
		return nil, 0, err
	}
	e2e := make([]float64, len(results))
	for i, r := range results {
		e2e[i] = r.E2EMS
	}
	return e2e, rec.SLOMS, nil
}

// refreshLoop consumes the drift monitor's stale queue until the
// lifecycle context is cancelled. A failed refresh keeps the old entry
// serving — staleness is degraded service, a failed refresh must not
// turn it into an outage — and the monitor's hysteresis re-flags the
// fingerprint on a later sweep if it stays bad.
func (s *Service) refreshLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case fp := <-s.monitor.Stale():
			s.refreshOne(ctx, fp)
		}
	}
}

// refreshOne runs one refresh and counts its failure, a panicking search
// included: no request is there to recover it. refresh's deferred abandon
// and releaseSearch have already freed its flight and admission slot.
func (s *Service) refreshOne(ctx context.Context, fp string) {
	defer func() {
		if p := recover(); p != nil {
			s.refreshFails.Add(1)
			log.Printf("service: refresh of %s panicked: %v\n%s", fp, p, debug.Stack())
		}
	}()
	if err := s.refresh(ctx, fp); err != nil && ctx.Err() == nil {
		s.refreshFails.Add(1)
	}
}

// refreshYield is the refresher's polling cadence while foreground
// misses are waiting for admission slots.
const refreshYield = 2 * time.Millisecond

// acquireRefresh takes an admission slot at background priority:
// refreshes only hold a slot while no foreground miss is blocked
// waiting for one (Service.searchWaiters), and a slot acquired in a
// race with an arriving waiter is handed straight back. Foreground
// misses therefore never queue behind a refresh; a refresh can wait
// arbitrarily long behind foreground load, by design.
func (s *Service) acquireRefresh(ctx context.Context) error {
	if s.sem == nil {
		return nil
	}
	for {
		if s.searchWaiters.Load() == 0 {
			select {
			case s.sem <- struct{}{}:
				if s.searchWaiters.Load() == 0 {
					return nil
				}
				// A foreground miss started waiting while we took the
				// slot: hand it back and keep polling.
				<-s.sem
			default:
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(refreshYield):
		}
	}
}

// refresh re-runs the search behind one stale fingerprint and swaps the
// store entry. The swap is a plain write-through Put: readers either
// get the old bytes or the new bytes, never a miss and never a mix —
// store tiers replace entries atomically under their own locks. The old
// entry keeps serving for the whole search. Skips cleanly when the
// store no longer holds the entry (invalidated or evicted since
// flagging), or when another flight for the fingerprint is already
// running.
func (s *Service) refresh(ctx context.Context, fp string) error {
	se, ok := s.getStore(fp)
	if !ok {
		return nil
	}
	rec, err := decodeRecommendation(se.Body)
	if err != nil {
		return err
	}
	m, spec, err := storedSpec(fp, se.Meta)
	if err != nil {
		return err
	}
	r, err := s.refreshResolved(rec, m)
	if err != nil {
		return err
	}
	c, leader := s.flight.claim(fp)
	if !leader {
		// A foreground miss is searching this fingerprint right now
		// (only possible after an invalidation raced the flagging); its
		// result will be at least as fresh as ours would be.
		return nil
	}
	defer s.flight.abandon(fp, c)
	if err := s.acquireRefresh(ctx); err != nil {
		s.flight.finish(fp, c, nil, err)
		return err
	}
	defer s.releaseSearch()
	// The lifecycle context rides into the search: Close cancels
	// in-flight refreshes, unlike foreground misses which run detached.
	se, err = s.runSearch(ctx, fp, spec, m.Spec, r)
	if err != nil {
		s.flight.finish(fp, c, nil, err)
		return err
	}
	s.putStore(fp, se, event.KindRefreshed) // the swap
	s.refreshes.Add(1)
	s.flight.finish(fp, c, se.Body, nil)
	return nil
}

// refreshResolved rebuilds the search identity that produced an entry
// from its persisted meta, falling back — for entries persisted before
// the lifecycle fields existed — to the recommendation body (method,
// SLO; the registry lookup is case-insensitive) and the service's caps.
func (s *Service) refreshResolved(rec *Recommendation, m entryMeta) (resolved, error) {
	method := m.Method
	if method == "" {
		method = rec.Method
	}
	version, err := search.Version(method)
	if err != nil {
		return resolved{}, err
	}
	sopts := search.Options{
		SLOMS:        m.SLOMS,
		MaxSamples:   m.MaxSamples,
		MaxSimCostMS: m.MaxSimCostMS,
	}
	if sopts.SLOMS <= 0 {
		sopts.SLOMS = rec.SLOMS
	}
	if sopts.MaxSamples <= 0 {
		sopts.MaxSamples = s.cfg.MaxSamples
	}
	if sopts.MaxSimCostMS <= 0 {
		sopts.MaxSimCostMS = s.cfg.MaxSimCostMS
	}
	return resolved{
		method:  method,
		version: version,
		seed:    m.Seed,
		ropts:   m.runnerOptions(),
		sopts:   sopts,
	}, nil
}

// DriftSweep runs one synchronous drift sweep (no-op without a
// monitor). Exposed for deterministic drills and tests; production
// sweeps ride the DriftInterval ticker.
func (s *Service) DriftSweep(ctx context.Context) {
	if s.monitor != nil {
		s.monitor.Sweep(ctx)
	}
}

var _ drift.Prober = lifecycleProber{}
