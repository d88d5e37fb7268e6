package shard

import "sync"

// blindCacheSize bounds the router's blind-key cache. Each entry is one
// sealed lookup key and a node index — small — so the bound is generous
// enough to cover a warm blind working set.
const blindCacheSize = 4096

// BlindCache pins recently-routed blind sealed lookup keys to the node
// that served them. Blind traffic has no template affinity — the ring
// spreads it by sealed key — so a ring change would silently re-hash
// warm blind keys onto new owners and orphan every entry the old owner
// had built up. The cache keeps routing a remembered key to its warm
// node for as long as that node stays a member, and an entry whose node
// has left is discarded on lookup, so the cache can never serve a stale
// owner after an epoch flip. Pins to surviving nodes outlive every flip
// by design.
//
// The router is untrusted, so the cache holds only what the router
// already sees on every blind request: the sealed lookup key and the
// node it chose. It learns nothing an adversary watching the router's
// traffic would not.
type BlindCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*blindEntry
	// Intrusive LRU list: head is most recent, tail next to evict.
	head, tail *blindEntry
}

type blindEntry struct {
	key        string
	node       int
	prev, next *blindEntry
}

// NewBlindCache builds a blind-key cache holding at most capacity pins.
func NewBlindCache(capacity int) *BlindCache {
	return &BlindCache{
		capacity: capacity,
		entries:  make(map[string]*blindEntry, capacity),
	}
}

// Lookup returns the node a sealed key is pinned to, if the pin is still
// valid under the live predicate. An entry whose node is no longer live
// is dropped — the next Put re-pins the key to the current ring owner.
func (c *BlindCache) Lookup(key string, live func(int) bool) (node int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return 0, false
	}
	if !live(e.node) {
		c.unlink(e)
		delete(c.entries, key)
		return 0, false
	}
	c.moveToFront(e)
	return e.node, true
}

// Put pins a sealed key to a node, evicting the least-recently-used pin
// when full.
func (c *BlindCache) Put(key string, node int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		e.node = node
		c.moveToFront(e)
		return
	}
	e := &blindEntry{key: key, node: node}
	c.entries[key] = e
	c.pushFront(e)
	if len(c.entries) > c.capacity {
		victim := c.tail
		c.unlink(victim)
		delete(c.entries, victim.key)
	}
}

// DropNode removes every pin to a departed node and returns how many
// were dropped. Leave/kill paths call it eagerly; Lookup's live check
// would catch stragglers anyway.
func (c *BlindCache) DropNode(node int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for key, e := range c.entries {
		if e.node == node {
			c.unlink(e)
			delete(c.entries, key)
			dropped++
		}
	}
	return dropped
}

// Len returns the number of live pins.
func (c *BlindCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *BlindCache) pushFront(e *blindEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *BlindCache) unlink(e *blindEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *BlindCache) moveToFront(e *blindEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
