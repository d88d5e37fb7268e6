package cache

import (
	"sort"

	"dssp/internal/invalidate"
	"dssp/internal/obs"
	"dssp/internal/wire"
)

// The reference invalidation walk. This is the update-by-update pass the
// cache ran in production until the batch walk (Cache.walk) took over both
// entry points; it moved here unchanged, and only tests may call it. It
// shares applyToBucket, record and the counters with the production walk,
// so comparing the two checks what the production walk adds — merging
// visit sets, holding a shard across several updates, replaying the log
// update-major — and nothing they have in common.
//
// unrouted makes the oracle ignore the routing index and visit every
// query template's bucket, computing a decision for each, as the
// pre-routing cache did. Routing may only skip buckets the analysis
// proved A = 0, so the routed decision log must equal the unrouted one
// minus decisions on A = 0 pairs, all of which dropped nothing
// (TestRouteParity).

// oracleOnUpdate applies the mixed invalidation strategy for one completed
// update (§2.3) and returns the number of entries invalidated.
func oracleOnUpdate(c *Cache, u wire.SealedUpdate, unrouted bool) int {
	c.updatesSeen.Add(1)
	c.updatesC.Inc()
	uLbl := obs.Tmpl(u.TemplateID)
	dropped := 0

	// Entries with hidden templates can only be handled blindly.
	if n := c.dropWholeBucket(""); n > 0 {
		c.record(Decision{Trace: u.TraceID, UpdateTemplate: uLbl, QueryTemplate: obs.BlindTemplate, Class: invalidate.Blind.String(), Dropped: n})
		dropped += n
	}

	ut := c.app.Update(u.TemplateID)
	if u.TemplateID == "" || ut == nil {
		// A blind update — or a template ID this application does not
		// know, which only a byzantine client can produce — reveals
		// nothing to steer by: invalidate everything.
		return dropped + c.dropAllBuckets(u.TraceID, uLbl)
	}

	router := c.inv.Router()
	ids, known := router.Affected(u.TemplateID)
	routed := known && !unrouted
	if !routed {
		// Unrouted pass (asked for, or an analysis that does not cover
		// this update template): visit every query template, in app order.
		ids = c.allQueryIDs
	}
	pu := c.inv.Prepare(invalidate.UpdateInstance{Template: ut, Params: u.Params})
	for _, id := range ids {
		dropped += c.visitBucket(id, u, pu, uLbl, router)
	}
	if routed {
		if n, ok := router.Skipped(u.TemplateID); ok && n > 0 {
			c.decMu.Lock()
			c.bucketsSkipped += n
			c.decMu.Unlock()
			c.skippedC.Add(int64(n))
		}
	}
	return dropped
}

// visitBucket applies one update against one template bucket, recording
// the decision. It returns the number of entries dropped.
func (c *Cache) visitBucket(id string, u wire.SealedUpdate, pu *invalidate.PreparedUpdate, uLbl string, router *invalidate.Router) int {
	qt := c.app.Query(id)
	if qt == nil {
		return 0
	}
	s := c.shardFor(id)
	s.mu.Lock()
	c.countWalk()
	bucket := s.buckets[id]
	if len(bucket) == 0 {
		s.mu.Unlock()
		return 0
	}
	class, removed := c.applyToBucket(s, id, qt, u, pu, bucket, router, nil)
	s.mu.Unlock()
	if len(removed) > 0 {
		c.entries.Add(int64(-len(removed)))
	}
	c.record(Decision{Trace: u.TraceID, UpdateTemplate: uLbl, QueryTemplate: id, Class: class.String(), Dropped: len(removed)})
	return len(removed)
}

// dropWholeBucket removes every entry of one bucket and returns how many
// died. It records nothing — callers own the decision log entry.
func (c *Cache) dropWholeBucket(id string) int {
	s := c.shardFor(id)
	s.mu.Lock()
	c.countWalk()
	bucket := s.buckets[id]
	if len(bucket) == 0 {
		s.mu.Unlock()
		return 0
	}
	removed := collect(make([]*Entry, 0, len(bucket)), bucket)
	delete(s.buckets, id)
	c.unlink(removed)
	s.mu.Unlock()
	c.entries.Add(int64(-len(removed)))
	return len(removed)
}

// dropAllBuckets clears every template bucket (blind invalidation),
// recording one decision per bucket in deterministic order. Each shard
// lock is held across its whole walk: releasing it mid-iteration — as an
// earlier version did to unlink LRU entries — let a concurrent Store
// insert into the map being ranged over, a fatal concurrent map
// read/write. Deleting the current key during range is defined behaviour,
// and unlink only takes lruMu, which nests under shard locks.
func (c *Cache) dropAllBuckets(trace obs.TraceID, uLbl string) int {
	counts := make(map[string]int)
	for _, s := range c.shards {
		s.mu.Lock()
		for id, bucket := range s.buckets {
			c.countWalk()
			if len(bucket) == 0 {
				continue
			}
			removed := collect(make([]*Entry, 0, len(bucket)), bucket)
			delete(s.buckets, id)
			c.unlink(removed)
			counts[id] = len(removed)
			c.entries.Add(int64(-len(removed)))
		}
		s.mu.Unlock()
	}
	ids := make([]string, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	dropped := 0
	for _, id := range ids {
		c.record(Decision{Trace: trace, UpdateTemplate: uLbl, QueryTemplate: id, Class: invalidate.Blind.String(), Dropped: counts[id]})
		dropped += counts[id]
	}
	return dropped
}
