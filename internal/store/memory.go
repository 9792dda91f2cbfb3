package store

import (
	"container/list"
	"errors"
	"sync"
)

// ErrClosed is returned by every operation on a closed store.
var ErrClosed = errors.New("store: closed")

// Memory is the bounded least-recently-used in-memory store — the
// serving layer's original recommendation cache, extracted behind the
// Store contract. Get marks an entry most recently used; Put beyond
// capacity evicts the least recently used entry. Safe for concurrent
// use.
type Memory struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used
	items     map[string]*list.Element
	evictions int64
	closed    bool
}

type memItem struct {
	key string
	e   Entry
}

// NewMemory builds a Memory store holding at most capacity entries
// (minimum 1).
func NewMemory(capacity int) *Memory {
	if capacity < 1 {
		capacity = 1
	}
	return &Memory{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// Get implements Store. It sits under the serving fast path, so it is
// pinned alloc-free (the LRU bump moves an existing list element; no
// node is created).
func (m *Memory) Get(key string) (Entry, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Entry{}, false, ErrClosed
	}
	el, ok := m.items[key]
	if !ok {
		return Entry{}, false, nil
	}
	m.order.MoveToFront(el)
	return el.Value.(*memItem).e, true, nil
}

// Put implements Store, evicting the least recently used entry when the
// insert exceeds capacity.
func (m *Memory) Put(key string, e Entry) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if el, ok := m.items[key]; ok {
		el.Value.(*memItem).e = e
		m.order.MoveToFront(el)
		return nil
	}
	m.items[key] = m.order.PushFront(&memItem{key: key, e: e})
	if m.order.Len() <= m.capacity {
		return nil
	}
	oldest := m.order.Back()
	m.order.Remove(oldest)
	delete(m.items, oldest.Value.(*memItem).key)
	m.evictions++
	return nil
}

// Delete implements Store.
func (m *Memory) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if el, ok := m.items[key]; ok {
		m.order.Remove(el)
		delete(m.items, key)
	}
	return nil
}

// Keys implements Store.
func (m *Memory) Keys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, len(m.items))
	for el := m.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*memItem).key)
	}
	return keys
}

// peek reads key as Get does, leaving its recency as it is.
func (m *Memory) peek(key string) (Entry, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Entry{}, false, ErrClosed
	}
	el, ok := m.items[key]
	if !ok {
		return Entry{}, false, nil
	}
	return el.Value.(*memItem).e, true, nil
}

// contains reports whether key is stored, leaving its recency as it is.
func (m *Memory) contains(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.items[key]
	return ok
}

// Len implements Store.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// Close implements Store, dropping every entry.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.order.Init()
	m.items = nil
	return nil
}

// Stats implements StatsReporter.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Kind:      "memory",
		Tiers:     map[string]int{"memory": m.order.Len()},
		Evictions: m.evictions,
	}
}
