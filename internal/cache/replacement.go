package cache

// Replacement for bounded caches. A cost-effective DSSP hosts many
// applications on shared infrastructure (§1), so each application's view
// store is bounded. Capacity 0 (the default) leaves the cache unbounded,
// which matches the paper's experiments (ten-minute runs never filled
// memory), and returns before touching anything in this file.
//
// The policy is S3-FIFO (Yang et al., SOSP '23). Two FIFO queues hold the
// entries: small (a tenth of Capacity) takes every new key, main the rest.
// A hit moves nothing — it bumps a saturating 2-bit count on the entry.
// When the cache is over capacity and small is over its share (or main is
// empty), small's oldest entry leaves: promoted to main with its count
// cleared if it was hit since insertion, otherwise evicted and its hash
// remembered in the ghost, a ring of Capacity 64-bit hashes. Otherwise
// main's oldest leaves: reinserted at the head with its count decremented
// if that was positive, otherwise evicted. A stored key the ghost remembers
// goes straight to main. One-visit results therefore pass through small
// without displacing the entries that carry the hits, and an entry that
// invalidation keeps removing regains its place in main through the ghost.
//
// The queues are global across shards (replacement is a property of the
// whole cache, not a stripe) and live under their own lock, lruMu. Lock
// order: lruMu nests inside shard locks — trackInsert and unlink run under
// the owning entry's shard lock and take lruMu within it; nothing ever
// acquires a shard lock while holding lruMu, and Lookup never takes lruMu
// at all. Keeping bucket and queue membership in one shard-lock critical
// section gives the invariant that an entry is linked if and only if it
// sits in its bucket, up to the one sanctioned exception: an eviction
// victim leaves its queue first (under the storing goroutine's shard lock)
// and its bucket second (evict, under the victim's own shard lock, taken
// with no other lock held). Entry.inLRU and evict's pointer-identity check
// make that window converge — an entry is freed at most once from each
// domain, and the capacity bound holds at every quiescent point.

// maxFreq saturates the per-entry hit count at two bits.
const maxFreq = 3

// fifo is an intrusive doubly linked queue over cache entries, newest at
// the head, oldest at the tail. The hooks live on Entry (see cache.go).
type fifo struct {
	head, tail *Entry
	len        int
}

func (l *fifo) pushFront(e *Entry) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
	l.len++
}

func (l *fifo) remove(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if l.head == e {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if l.tail == e {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.len--
}

func (l *fifo) moveToFront(e *Entry) {
	if l.head == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// swap puts e where old sits and unlinks old.
func (l *fifo) swap(old, e *Entry) {
	e.prev, e.next = old.prev, old.next
	if e.prev != nil {
		e.prev.next = e
	} else {
		l.head = e
	}
	if e.next != nil {
		e.next.prev = e
	} else {
		l.tail = e
	}
	old.prev, old.next = nil, nil
}

// ghost remembers the hashes of the last max keys evicted from the small
// queue without a hit, in a ring that grows to max as evictions happen. The
// set maps a hash to its ring slot, so an overwritten slot forgets its hash
// only if no later eviction re-added it.
type ghost struct {
	max  int
	ring []uint64
	next int // slot to overwrite once the ring is full
	set  map[uint64]int
}

func (g *ghost) add(h uint64) {
	if len(g.ring) < g.max {
		g.set[h] = len(g.ring)
		g.ring = append(g.ring, h)
		return
	}
	if i, ok := g.set[g.ring[g.next]]; ok && i == g.next {
		delete(g.set, g.ring[g.next])
	}
	g.ring[g.next] = h
	g.set[h] = g.next
	g.next = (g.next + 1) % g.max
}

// take reports whether h is remembered, and forgets it.
func (g *ghost) take(h uint64) bool {
	_, ok := g.set[h]
	if ok {
		delete(g.set, h)
	}
	return ok
}

// ghostHash is FNV-1a 64 over the bucket and key of an entry. It must be
// the same in every process: which keys the ghost recognises decides what
// is evicted, and the benchmark's counts repeat per seed only if it is.
func ghostHash(templateID, key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(templateID); i++ {
		h ^= uint64(templateID[i])
		h *= 1099511628211
	}
	h ^= 0xff // separator: ("ab", "c") and ("a", "bc") differ
	h *= 1099511628211
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// queue returns the queue a linked entry sits in. Called under lruMu.
func (c *Cache) queue(e *Entry) *fifo {
	if e.inMain {
		return &c.main
	}
	return &c.small
}

// touch counts a hit on an entry, saturating at maxFreq. It takes no lock:
// the caller's shard lock orders it against every other hit on the entry,
// and the only other writers (trackInsert clearing or decrementing the
// count under lruMu) may at worst lose this one bump.
func (c *Cache) touch(e *Entry) {
	if c.opts.Capacity <= 0 {
		return
	}
	if f := e.freq.Load(); f < maxFreq {
		e.freq.CompareAndSwap(f, f+1)
	}
}

// trackInsert links a freshly stored entry and picks victims while the
// cache is over capacity. An entry that replaces a linked one (two
// uncoalesced misses of one key) takes over its queue position and hit
// count; a key the ghost remembers goes to main; anything else to small.
// Called under the storing shard's lock, in the same critical section as
// the bucket insert, so no invalidation can run between the two and
// resurrect a dead entry. The victims are returned for the caller to evict
// after releasing the shard lock (evict takes the victim's own shard lock).
func (c *Cache) trackInsert(e, replaced *Entry) []*Entry {
	if c.opts.Capacity <= 0 {
		return nil
	}
	c.lruMu.Lock()
	switch {
	case replaced != nil && replaced.inLRU:
		e.inMain = replaced.inMain
		e.freq.Store(replaced.freq.Load())
		c.queue(replaced).swap(replaced, e)
		replaced.inLRU = false
	case c.ghost.take(ghostHash(e.Query.TemplateID, e.Query.Key)):
		c.readmitsC.Inc()
		e.inMain = true
		c.main.pushFront(e)
	default:
		c.small.pushFront(e)
	}
	e.inLRU = true
	victims := c.shrink()
	c.lruMu.Unlock()
	return victims
}

// linkWarm links a migrated entry at the head of main: it was earned by a
// miss on another node and kept there, so it is warm state by definition.
// Same contract as trackInsert.
func (c *Cache) linkWarm(e *Entry) []*Entry {
	if c.opts.Capacity <= 0 {
		return nil
	}
	c.lruMu.Lock()
	e.inMain, e.inLRU = true, true
	c.main.pushFront(e)
	victims := c.shrink()
	c.lruMu.Unlock()
	return victims
}

// shrink unlinks entries until the queues hold at most Capacity, and
// returns the ones to evict. Called under lruMu.
func (c *Cache) shrink() []*Entry {
	var victims []*Entry
	for c.small.len+c.main.len > c.opts.Capacity {
		if c.small.len > c.smallCap || c.main.len == 0 {
			v := c.small.tail
			c.small.remove(v)
			if v.freq.Load() > 0 {
				v.freq.Store(0)
				v.inMain = true
				c.main.pushFront(v)
				continue
			}
			c.ghost.add(ghostHash(v.Query.TemplateID, v.Query.Key))
			v.inLRU = false
			victims = append(victims, v)
			continue
		}
		v := c.main.tail
		if v.freq.Load() > 0 {
			v.freq.Add(^uint32(0))
			c.main.moveToFront(v)
			continue
		}
		c.main.remove(v)
		v.inLRU = false
		victims = append(victims, v)
	}
	return victims
}

// evict deletes a victim from its shard bucket. Called with no locks held.
// The pointer-identity check makes the delete a no-op when the victim
// already left its bucket through another path (invalidation, or
// replacement by a concurrent store of the same key).
func (c *Cache) evict(v *Entry) {
	s := c.shardFor(v.Query.TemplateID)
	removed := false
	s.mu.Lock()
	if b := s.buckets[v.Query.TemplateID]; b != nil && b[v.Query.Key] == v {
		delete(b, v.Query.Key)
		if len(b) == 0 {
			delete(s.buckets, v.Query.TemplateID)
		}
		removed = true
	}
	s.mu.Unlock()
	if removed {
		c.entries.Add(-1)
		c.evictions.Add(1)
		c.evictionsC.Inc()
	}
}

// unlink removes invalidated entries from their queues. Called under the
// owning shard's lock, in the same critical section that removed the
// entries from their bucket.
func (c *Cache) unlink(removed []*Entry) {
	if c.opts.Capacity <= 0 || len(removed) == 0 {
		return
	}
	c.lruMu.Lock()
	for _, e := range removed {
		if e.inLRU {
			c.queue(e).remove(e)
			e.inLRU = false
		}
	}
	c.lruMu.Unlock()
}
