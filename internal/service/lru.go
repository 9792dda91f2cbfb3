package service

import "container/list"

// lruCache is a bounded least-recently-used map for the service's
// process-private runtime state: runner pools, keyed by fingerprint.
// (Recommendations themselves live behind the store.Store contract.) It
// is not safe for concurrent use: the Service guards it with its own
// mutex, held only briefly — searches and evaluations run outside the
// lock.
type lruCache struct {
	capacity int
	order    *list.List // front = most recently used
	items    map[string]*list.Element
}

type lruItem struct {
	key string
	val any
}

func newLRUCache(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// get returns the value for key and marks it most recently used.
func (c *lruCache) get(key string) (any, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem).val, true
}

// add inserts (or replaces) key, evicting the least recently used key
// to stay within capacity.
func (c *lruCache) add(key string, val any) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruItem{key: key, val: val})
	if c.order.Len() <= c.capacity {
		return
	}
	oldest := c.order.Back()
	c.order.Remove(oldest)
	delete(c.items, oldest.Value.(*lruItem).key)
}

// remove drops key if present.
func (c *lruCache) remove(key string) {
	if el, ok := c.items[key]; ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
}
