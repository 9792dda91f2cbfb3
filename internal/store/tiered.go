package store

import (
	"cmp"
	"errors"
)

// Tiered layers a fast bounded store (typically Memory) over a durable
// one (typically Disk):
//
//   - Put writes through to both tiers, durable tier first — on the
//     healthy path an entry is never visible in memory before it is
//     safe on disk. A slow-tier failure no longer blocks the fast tier:
//     the entry is written fast-side anyway and the slow tier's error
//     returned, so a dead disk degrades the store to memory-only
//     serving instead of forgetting every new entry;
//   - Get tries the fast tier, then the slow one, promoting a slow-tier
//     hit into the fast tier so repeat reads stay cheap;
//   - an eviction from the bounded fast tier is not data loss: the
//     entry remains in the slow tier and the next Get re-promotes it.
//
// Safe for concurrent use when both tiers are.
type Tiered struct {
	fast Store
	slow Store
}

// NewTiered builds the two-tier store. Both tiers are owned by the
// result: Close closes them.
func NewTiered(fast, slow Store) *Tiered {
	return &Tiered{fast: fast, slow: slow}
}

// NewDurable builds the serving layer's durable store over disk, the one
// place the disk tier's resilience stack is composed:
//
//	Tiered(Memory(cacheSize), Breaker(Retry(disk)))
//
// warmed with up to cacheSize entries. The order is load-bearing. Tiered
// is outermost, so the memory tier keeps serving while the breaker is
// open. Breaker is outside Retry, so one logical op counts once against
// the breaker's threshold however many attempts it takes, and an open
// breaker fails fast before any backoff. The retry tier keeps
// RetryConfig's defaults; bc sets the breaker (the service passes only
// Logf, so its defaults hold too). The result owns disk.
// TestResilientStackEndToEnd pins the order.
func NewDurable(disk Store, cacheSize int, bc BreakerConfig) *Tiered {
	t := NewTiered(NewMemory(cacheSize), NewBreaker(NewRetry(disk, RetryConfig{}), bc))
	t.Warm(cacheSize)
	return t
}

// Get implements Store, promoting slow-tier hits into the fast tier.
// The fast-tier hit branch is on the serving fast path and alloc-free;
// the slow-tier promotion is the miss path and may allocate inside the
// tiers it calls.
func (t *Tiered) Get(key string) (Entry, bool, error) {
	if e, ok, err := t.fast.Get(key); err != nil || ok {
		return e, ok, err
	}
	e, ok, err := t.slow.Get(key)
	if err != nil || !ok {
		return Entry{}, false, err
	}
	// Promotion is best-effort: a full or failing fast tier must not
	// turn a perfectly good slow-tier hit into an error.
	_ = t.fast.Put(key, e)
	return e, true, nil
}

// Put implements Store, writing through both tiers (slow first). A
// slow-tier failure — a dead disk, an open breaker — still writes the
// fast tier, then surfaces the slow tier's error for the caller to
// count: the entry serves from memory while the durable tier is down,
// and the caller knows durability was not achieved. A fast-tier failure
// is returned as-is (with both tiers failing, the fast error wins; the
// entry landed nowhere the next Get will look first).
func (t *Tiered) Put(key string, e Entry) error {
	slowErr := t.slow.Put(key, e)
	if err := t.fast.Put(key, e); err != nil {
		return err
	}
	return slowErr
}

// Delete implements Store, removing the key from both tiers.
func (t *Tiered) Delete(key string) error {
	return errors.Join(t.fast.Delete(key), t.slow.Delete(key))
}

// Keys implements Store: the union of both tiers (write-through keeps
// the slow tier a superset, but a warm-started or hand-filled fast tier
// is tolerated).
func (t *Tiered) Keys() []string {
	seen := make(map[string]struct{})
	var keys []string
	for _, tier := range []Store{t.slow, t.fast} {
		for _, k := range tier.Keys() {
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			keys = append(keys, k)
		}
	}
	return keys
}

// Len implements Store.
func (t *Tiered) Len() int { return len(t.Keys()) }

// Close implements Store, closing both tiers.
func (t *Tiered) Close() error {
	return errors.Join(t.fast.Close(), t.slow.Close())
}

// Warm promotes up to max slow-tier entries into the fast tier (all of
// them when max <= 0) and returns how many it promoted. Called once
// after open, it turns a cold restart into a warm one: the first
// requests hit memory, not disk.
func (t *Tiered) Warm(max int) int {
	keys := t.slow.Keys()
	if max > 0 && len(keys) > max {
		keys = keys[:max]
	}
	warmed := 0
	for _, k := range keys {
		e, ok, err := t.slow.Get(k)
		if err != nil || !ok {
			continue
		}
		if t.fast.Put(k, e) == nil {
			warmed++
		}
	}
	return warmed
}

// Stats implements StatsReporter, merging both tiers' stats. Evictions
// are the fast tier's (the slow tier is unbounded in every shipped
// configuration); the breaker state is the slow tier's when both tiers
// have a breaker.
func (t *Tiered) Stats() Stats {
	s := Stats{Kind: "tiered", Tiers: make(map[string]int, 2)}
	for _, tier := range []Store{t.fast, t.slow} {
		ts := StatsOf(tier)
		for name, n := range ts.Tiers {
			s.Tiers[name] += n
		}
		s.Evictions += ts.Evictions
		s.Retries += ts.Retries
		s.Breaker = cmp.Or(ts.Breaker, s.Breaker)
	}
	return s
}
