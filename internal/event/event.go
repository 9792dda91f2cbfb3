// Package event is the in-process pub/sub bus behind the recommendation
// lifecycle: a narrow fan-out surface that store mutations publish into
// and watchers subscribe from, instead of broadcast RPCs.
//
// Topics are fingerprints — the serving layer's content-addressed cache
// keys — and the two event kinds are the complete lifecycle vocabulary
// (this is the one place they are defined). Only a request writes the
// store, so each event answers one:
//
//   - "put": a search's recommendation was stored for the fingerprint —
//     every successful store Put the serving layer makes;
//   - "invalidated": the entry was explicitly removed (DELETE
//     /v1/recommendation/{fp}); the next configure for the same content
//     re-searches.
//
// Delivery is best-effort per subscriber: each Subscription owns a
// bounded buffer, and a publish that finds the buffer full drops the
// event for that subscriber and counts it (Bus.Dropped, per-subscription
// Dropped) rather than blocking the publisher — a slow SSE client must
// never stall a configure or invalidate request. The bus also keeps a
// small ring of recent events so a reconnecting subscriber can resume
// from a last-seen sequence number (Replay; the SSE layer maps this to
// Last-Event-ID).
package event

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Kind names a lifecycle event. The complete set is KindPut and
// KindInvalidated (see the package comment).
type Kind string

const (
	// KindPut: an entry was stored by a search.
	KindPut Kind = "put"
	// KindInvalidated: the entry was explicitly removed.
	KindInvalidated Kind = "invalidated"
)

// Event is one lifecycle notification. Seq increases monotonically
// across the whole bus (all topics), so it doubles as the SSE event id
// and the resume cursor.
type Event struct {
	Seq         uint64 `json:"seq"`
	Kind        Kind   `json:"kind"`
	Fingerprint string `json:"fingerprint"`
	UnixMS      int64  `json:"unix_ms"`
}

// ErrClosed is returned by Subscribe on a closed bus.
var ErrClosed = errors.New("event: bus closed")

// Bus is the in-process pub/sub fan-out. Safe for concurrent use; all
// methods are non-blocking (publishes never wait on subscribers).
type Bus struct {
	mu      sync.Mutex
	closed  bool
	seq     uint64
	subs    map[*Subscription]struct{}
	ring    []Event // last ringCap events, oldest first
	ringCap int
	dropped atomic.Int64
}

// NewBus builds a bus whose resume ring keeps the last ringCap events
// (minimum 1; a typical serving bus uses a few hundred).
func NewBus(ringCap int) *Bus {
	if ringCap < 1 {
		ringCap = 1
	}
	return &Bus{subs: make(map[*Subscription]struct{}), ringCap: ringCap}
}

// Publish fans one event out to every subscriber of the fingerprint's
// topic (and every subscribe-all subscriber), dropping it — counted —
// at any full buffer, and records it in the resume ring. It returns the
// published event; on a closed bus it publishes nothing and returns the
// zero Event.
func (b *Bus) Publish(kind Kind, fingerprint string) Event {
	now := time.Now().UnixMilli()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return Event{}
	}
	b.seq++
	ev := Event{Seq: b.seq, Kind: kind, Fingerprint: fingerprint, UnixMS: now}
	if len(b.ring) == b.ringCap {
		copy(b.ring, b.ring[1:])
		b.ring[len(b.ring)-1] = ev
	} else {
		b.ring = append(b.ring, ev)
	}
	for sub := range b.subs {
		if sub.topic != "" && sub.topic != fingerprint {
			continue
		}
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
			b.dropped.Add(1)
		}
	}
	return ev
}

// Subscribe registers a subscriber for one fingerprint's events (topic
// "" subscribes to every topic) with a buffer of buf events (minimum 1).
// The caller must Cancel the subscription when done; a subscription is
// also terminated — its channel closed — when the bus closes.
func (b *Bus) Subscribe(topic string, buf int) (*Subscription, error) {
	if buf < 1 {
		buf = 1
	}
	sub := &Subscription{
		bus:   b,
		topic: topic,
		ch:    make(chan Event, buf),
		done:  make(chan struct{}),
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	b.subs[sub] = struct{}{}
	return sub, nil
}

// Replay returns the ring's events for topic (topic "" matches all)
// with Seq > after, oldest first. Events older than the ring are gone —
// a subscriber that fell further behind resumes with a gap, which the
// sequence numbers make visible.
func (b *Bus) Replay(topic string, after uint64) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Event
	for _, ev := range b.ring {
		if ev.Seq <= after {
			continue
		}
		if topic != "" && topic != ev.Fingerprint {
			continue
		}
		out = append(out, ev)
	}
	return out
}

// Dropped counts events dropped at full subscriber buffers since
// construction, across all subscribers.
func (b *Bus) Dropped() int64 { return b.dropped.Load() }

// Subscribers reports the current subscriber count.
func (b *Bus) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Close terminates every subscription (their channels close) and
// refuses new ones. Publish on a closed bus is a silent no-op: during a
// service shutdown, late mutations have no one left to tell.
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := make([]*Subscription, 0, len(b.subs))
	for sub := range b.subs {
		subs = append(subs, sub)
	}
	b.subs = make(map[*Subscription]struct{})
	b.mu.Unlock()
	for _, sub := range subs {
		sub.terminate()
	}
}

// Subscription is one subscriber's bounded mailbox.
type Subscription struct {
	bus   *Bus
	topic string
	ch    chan Event
	done  chan struct{}
	once  sync.Once

	dropped atomic.Int64
}

// Events is the subscriber's receive channel. It closes when the
// subscription is cancelled or the bus closes; events arrive in publish
// order, minus any dropped at a full buffer.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Done closes when the subscription ends (Cancel or bus Close) — a
// select-friendly companion to Events for goroutines that never read.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Dropped counts events this subscription missed at a full buffer.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Cancel unregisters the subscription and closes its channel. Safe to
// call more than once, and after bus Close.
func (s *Subscription) Cancel() {
	s.bus.mu.Lock()
	delete(s.bus.subs, s)
	s.bus.mu.Unlock()
	s.terminate()
}

// terminate closes the channels exactly once. Publish sends only under
// the bus mutex and only to registered subscriptions, so closing after
// removal from the map cannot race a send.
func (s *Subscription) terminate() {
	s.once.Do(func() {
		close(s.done)
		close(s.ch)
	})
}
