// Package store is the recommendation storage layer behind the serving
// layer (internal/service): a small, swappable contract for
// content-addressed entries, keyed by fingerprint.
//
// The contract is deliberately narrow — Get/Put/Delete/Keys/Len/Close
// over opaque bytes — so storage policy (bounded memory, durable disk,
// memory-over-disk tiering, or anything a caller brings) is chosen by
// construction, not baked into the service. Three implementations ship:
//
//   - Memory: the serving layer's original bounded LRU, extracted. Fast,
//     process-private, dies with the process.
//   - Disk: one atomically-renamed file per fingerprint under a
//     directory; a write or delete fsyncs the directory after its rename
//     or unlink. Open reads and verifies every file on GOMAXPROCS
//     workers and rebuilds the index from them, so a restarted process
//     serves everything its predecessor stored. The reader accepts
//     exactly the bytes Put writes; anything else — corrupt, truncated,
//     or in another layout — degrades to a miss, never an error.
//   - Tiered: Memory over Disk with write-through on Put and
//     promote-on-hit on Get — the serving default when a cache directory
//     is configured, where NewDurable puts a Retry and a Breaker
//     around the disk tier.
//
// Values are the already-serialized response body plus a caller-defined
// metadata blob (the service stores the canonical spec JSON and runner
// options there, so evaluation pools can be rebuilt after a restart).
// A Store never interprets either.
package store

import "slices"

// Entry is one stored recommendation: the exact response bytes served
// for its fingerprint, plus opaque caller metadata persisted alongside.
type Entry struct {
	// Body is the serialized recommendation as served to clients.
	// Stores return it byte-identically on every Get.
	Body []byte
	// Meta is caller-defined sidecar data stored and returned verbatim.
	Meta []byte
}

// Store is the storage contract the serving layer speaks. Keys are
// fingerprints ("sha256:<hex>"); a Store must accept any key that is a
// non-empty, valid UTF-8 string, and may refuse any other key with an
// error from Put. Implementations must be safe for concurrent use.
//
// Error semantics: a missing key is (Entry{}, false, nil) from Get —
// never an error. Errors are reserved for real storage failures
// (unwritable directory, closed store); a corrupt durable entry is a
// miss, not an error, so one bad file can never poison serving.
type Store interface {
	// Get returns the entry for key. ok reports whether it was found.
	Get(key string) (e Entry, ok bool, err error)
	// Put inserts or replaces the entry for key.
	Put(key string, e Entry) error
	// Delete removes key. Deleting an absent key is a no-op, not an error.
	Delete(key string) error
	// Keys returns a snapshot of the stored keys, in no particular order.
	Keys() []string
	// Len returns the number of stored entries.
	Len() int
	// Close releases the store's resources. A closed store errors on use.
	Close() error
}

// Stats describes a store for observability (/healthz). Implementations
// that can report themselves implement StatsReporter; the service falls
// back to {Kind: "custom"} for stores that don't.
type Stats struct {
	// Kind names the implementation: "memory", "disk", "tiered", ...
	Kind string `json:"kind"`
	// Tiers maps each tier's name to its current entry count. A
	// single-tier store reports one entry under its own kind.
	Tiers map[string]int `json:"tiers"`
	// Evictions counts entries dropped by a capacity bound since
	// construction (write-through tiers keep evicted entries durable in
	// the tier below, so a tiered eviction is not data loss).
	Evictions int64 `json:"evictions"`
	// Breaker is the state name ("closed", "open", "half-open") of a
	// Breaker inside the store, or "" when there is none.
	Breaker string `json:"breaker,omitempty"`
	// Retries counts the retry attempts spent by Retry tiers inside the
	// store since construction.
	Retries int64 `json:"retries,omitempty"`
}

// StatsReporter is the optional observability extension of Store.
type StatsReporter interface {
	Stats() Stats
}

// StatsOf reports s's Stats, or a {Kind: "custom"} placeholder with the
// store's overall length when s does not implement StatsReporter.
func StatsOf(s Store) Stats {
	if sr, ok := s.(StatsReporter); ok {
		return sr.Stats()
	}
	return Stats{Kind: "custom", Tiers: map[string]int{"custom": s.Len()}}
}

// Contains reports whether s holds key, from the index of the store that
// holds it: a Memory's map, a Disk's index, and through a Tiered, a
// Breaker, a Retry or a Faulty, the stores inside. Like Keys and Len, it
// reads no file and passes no breaker or retry bookkeeping, and it does
// not touch the memory tier's recency, so a caller can check a key it may
// not go on to read. Any other Store is asked for its Keys.
func Contains(s Store, key string) bool {
	switch s := s.(type) {
	case *Memory:
		return s.contains(key)
	case *Disk:
		return s.contains(key)
	case *Tiered:
		return Contains(s.fast, key) || Contains(s.slow, key)
	case *Breaker:
		return Contains(s.inner, key)
	case *Retry:
		return Contains(s.inner, key)
	case *Faulty:
		return Contains(s.inner, key)
	}
	return slices.Contains(s.Keys(), key)
}

// Peek reads key as Get does, except that it changes no store's
// working set: a *Memory leaves the key's recency as it is, and a
// *Tiered peeks at its fast tier, then reads its slow tier without
// promoting a slow-tier hit into the fast tier. A pass over every key,
// such as a listing, reads through Peek so that it neither reorders a
// memory tier's evictions nor replaces its entries.
func Peek(s Store, key string) (Entry, bool, error) {
	switch s := s.(type) {
	case *Memory:
		return s.peek(key)
	case *Tiered:
		if e, ok, err := Peek(s.fast, key); err != nil || ok {
			return e, ok, err
		}
		return s.slow.Get(key)
	}
	return s.Get(key)
}
