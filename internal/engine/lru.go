package engine

import "container/list"

// lruCache is a fixed-capacity LRU over compiled plans, keyed by the
// plan's canonical text (cq.Query.String, cq.LoweredText or
// cq.ClassifyText) — the text itself, not a hash of it, so a hit needs
// no verification. It is not itself synchronized; the Engine guards it
// with a mutex (operations are O(1) map/list work, orders of magnitude
// cheaper than the planning they replace, so one lock does not become
// the bottleneck).
type lruCache struct {
	cap   int
	items map[string]*list.Element
	order *list.List // front = most recently used
}

type lruEntry struct {
	key  string
	plan *Plan
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		items: make(map[string]*list.Element, capacity),
		order: list.New(),
	}
}

func (c *lruCache) get(key string) (*Plan, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).plan, true
}

// put inserts or refreshes key and returns how many entries were
// evicted to stay within capacity (0 or 1 in practice).
func (c *lruCache) put(key string, pl *Plan) int {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).plan = pl
		c.order.MoveToFront(el)
		return 0
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, plan: pl})
	evicted := 0
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
		evicted++
	}
	return evicted
}

func (c *lruCache) len() int { return c.order.Len() }
