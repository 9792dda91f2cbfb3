// Fixture for tierorder: wrapper compositions must follow
// Tiered ⊃ Breaker ⊃ Retry ⊃ base, resolved through direct
// nesting and single-assignment locals, with Faulty transparent; store
// Puts under err != nil need an //aarc:errpath waiver.
package app

import "tierorder/store"

// inverted is the seeded violation from the acceptance checklist:
// Retry outside Breaker storms the backend on every probe.
func inverted() store.Store {
	return store.NewRetry(store.NewBreaker(store.NewMemory(), 3), 2) // want `store wrapper order violation: NewRetry may not wrap NewBreaker`
}

// canonical is the full stack in its blessed order.
func canonical() store.Store {
	disk, err := store.OpenDisk("/tmp/x")
	if err != nil {
		return store.NewMemory()
	}
	return store.NewTiered(store.NewBreaker(store.NewRetry(store.NewMemory(), 2), 3), disk)
}

// chained resolves through single-assignment locals: still canonical.
func chained() store.Store {
	base := store.NewMemory()
	retrier := store.NewRetry(base, 2)
	breaker := store.NewBreaker(retrier, 3)
	return store.NewTiered(store.NewMemory(), breaker)
}

// chainedInverted is the same inversion hidden behind a local.
func chainedInverted() store.Store {
	breaker := store.NewBreaker(store.NewMemory(), 3)
	return store.NewRetry(breaker, 2) // want `store wrapper order violation: NewRetry may not wrap NewBreaker`
}

// faultyTransparent: the chaos layer may sit anywhere without changing
// the composition's rank.
func faultyTransparent() store.Store {
	return store.NewBreaker(store.NewFaulty(store.NewRetry(store.NewMemory(), 2)), 3)
}

// faultyInverted: transparency cuts both ways — Faulty cannot launder
// an inversion.
func faultyInverted() store.Store {
	return store.NewRetry(store.NewFaulty(store.NewBreaker(store.NewMemory(), 3)), 2) // want `store wrapper order violation: NewRetry may not wrap NewBreaker`
}

// doubled: equal ranks are also a violation (outer must strictly
// exceed inner).
func doubled() store.Store {
	return store.NewRetry(store.NewRetry(store.NewMemory(), 1), 1) // want `store wrapper order violation: NewRetry may not wrap NewRetry`
}

// reassigned locals have unknown rank: the analyzer under-approximates
// rather than guessing.
func reassigned(cold bool) store.Store {
	s := store.NewBreaker(store.NewMemory(), 3)
	if cold {
		s = store.NewMemory()
	}
	return store.NewRetry(s, 2) // ok: s reassigned, rank unknown
}

func cacheOnError(s store.Store, err error) {
	if err != nil {
		_ = s.Put("fp", nil) // want `store Put on an error path can cache a failed search`
	}
	if err != nil {
		_ = s.Put("fp", nil) //aarc:errpath torn-write simulation is the point of this chaos path
	}
	_ = s.Put("fp", nil) // ok: not on an error path
}
