package obs

import "sync"

// HandleCache remembers instrument handles under a key of the caller's
// choosing, so a hot path records through a handle instead of through
// Registry.get's sort-labels-build-key-and-lock lookup. Registry handles
// are stable per label set: two racing registrations of one key resolve to
// the same instrument, and a cached handle is the one a lookup would return.
//
// Keys are often built from template IDs, which reach a node from the
// untrusted tier, so the cache holds at most DefaultLabelCap entries. Past
// that a new key is registered on every use and not remembered — the
// registry's own label cap has by then folded such a flood into one
// overflow instrument. The zero value is ready to use. A map under an
// RWMutex, not a sync.Map: a struct key would be boxed into an interface,
// an allocation, on every sync.Map lookup.
type HandleCache[K comparable, H any] struct {
	mu sync.RWMutex
	m  map[K]H
}

// Get returns the handle cached under k, calling register for it on a miss.
func (c *HandleCache[K, H]) Get(k K, register func() H) H {
	c.mu.RLock()
	h, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		return h
	}
	h = register()
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]H)
	}
	if len(c.m) < DefaultLabelCap {
		c.m[k] = h
	}
	c.mu.Unlock()
	return h
}

// Len returns the number of cached handles.
func (c *HandleCache[K, H]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Reset forgets every handle; for an owner that moves to another registry.
func (c *HandleCache[K, H]) Reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}
