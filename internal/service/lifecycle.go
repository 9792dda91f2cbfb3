package service

import (
	"context"
	"encoding/json"
	"sort"
	"sync"
	"time"

	"aarc/internal/event"
)

// This file is the read side of the store's change feed: Watch and
// ReplayEvents over the event bus the service publishes into where it
// writes the store (putStore, Invalidate), and the Recommendations
// listing watchers bootstrap from. Only a request writes the store, so
// every event answers one. The event Kind vocabulary (put, invalidated)
// is documented on internal/event.

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
