package store

// Op names a mutating store operation, for Notify hooks.
type Op int

const (
	// OpPut: an entry was inserted or replaced.
	OpPut Op = iota
	// OpDelete: an entry was removed.
	OpDelete
)

// Notify wraps a Store and invokes a hook after every successful
// mutation — the change-notification seam the serving layer's event bus
// hangs off: every Put and Delete reaching the store, whatever path
// produced it (singleton miss, batch run, background refresh, explicit
// invalidation), fires exactly one callback.
//
// The hook runs synchronously on the mutating goroutine, after the
// inner operation succeeded; failed operations never notify. Keep the
// hook fast and non-blocking — the service's hook publishes to a
// bounded-buffer bus and returns. Reads pass through untouched.
type Notify struct {
	inner Store
	fn    func(op Op, key string)
}

// NewNotify wraps inner so fn observes every successful mutation. A nil
// fn makes Notify a transparent pass-through.
func NewNotify(inner Store, fn func(op Op, key string)) *Notify {
	return &Notify{inner: inner, fn: fn}
}

// Get passes through to the wrapped store. On the serving fast path;
// the pass-through itself must stay alloc-free.
//
//aarc:hotpath
func (n *Notify) Get(key string) (Entry, bool, error) { return n.inner.Get(key) }

// Put writes through and notifies on success.
func (n *Notify) Put(key string, e Entry) error {
	if err := n.inner.Put(key, e); err != nil {
		return err
	}
	if n.fn != nil {
		n.fn(OpPut, key)
	}
	return nil
}

// Delete deletes through and notifies on success. The Store contract
// makes deleting an absent key a successful no-op, so callers that want
// existence-accurate events (Service.Invalidate) check before deleting.
func (n *Notify) Delete(key string) error {
	if err := n.inner.Delete(key); err != nil {
		return err
	}
	if n.fn != nil {
		n.fn(OpDelete, key)
	}
	return nil
}

// Keys passes through to the wrapped store.
func (n *Notify) Keys() []string { return n.inner.Keys() }

// Len passes through to the wrapped store.
func (n *Notify) Len() int { return n.inner.Len() }

// Close closes the wrapped store. Closing does not notify.
func (n *Notify) Close() error { return n.inner.Close() }

// Stats reports the wrapped store's stats: the wrapper is invisible to
// observability (/healthz shows "tiered", not "notify(tiered)").
func (n *Notify) Stats() Stats { return StatsOf(n.inner) }
