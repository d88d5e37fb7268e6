package cache

import (
	"sort"

	"dssp/internal/invalidate"
	"dssp/internal/obs"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// The reference invalidation walk. This is the update-by-update pass the
// cache ran in production until the batch walk (Cache.walk) took over both
// entry points; it moved here unchanged, and only tests may call it. It
// shares record and the counters with the production walk, and decides a
// bucket the way applyToBucket did before the bucket index (index.go):
// every entry of a statement- or view-inspection bucket, not the ones the
// plan's probe names. Comparing the two checks what the production walk
// adds — merging visit sets, holding a shard across several updates,
// replaying the log update-major, probing the index — and nothing they
// have in common.
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
	b := s.buckets[id]
	if b == nil || len(b.entries) == 0 {
		s.mu.Unlock()
		return 0
	}
	class, removed := c.scanBucket(s, id, qt, u, pu, b, router)
	s.mu.Unlock()
	if len(removed) > 0 {
		c.entries.Add(int64(-len(removed)))
	}
	c.record(Decision{Trace: u.TraceID, UpdateTemplate: uLbl, QueryTemplate: id, Class: class.String(), Dropped: len(removed)})
	return len(removed)
}

// scanBucket applies one update against one non-empty bucket as
// applyToBucket did before the bucket index: a statement- or
// view-inspection bucket has every entry decided. Called under the
// bucket's shard lock.
func (c *Cache) scanBucket(s *shard, id string, qt *template.Template, u wire.SealedUpdate, pu *invalidate.PreparedUpdate, b *bucket, router *invalidate.Router) (invalidate.Class, []*Entry) {
	var sample *Entry
	for _, e := range b.entries {
		sample = e
		break
	}
	class := router.Class(u.Exposure, sample.Query.Exposure)
	plan := c.inv.Plan(pu.Update().Template, qt)
	var removed []*Entry
	switch class {
	case invalidate.Blind:
		removed = collect(removed, b)
		delete(s.buckets, id)
	case invalidate.TemplateInspection:
		if plan.Decide(class, pu, nil, nil) == invalidate.Invalidate {
			removed = collect(removed, b)
			delete(s.buckets, id)
		}
	default:
		for _, e := range b.entries {
			if plan.Decide(class, pu, e.Query.Params, e.Result.Result) == invalidate.Invalidate {
				b.remove(e)
				removed = append(removed, e)
			}
		}
	}
	c.unlink(removed)
	return class, removed
}

// dropWholeBucket removes every entry of one bucket and returns how many
// died. It records nothing — callers own the decision log entry.
func (c *Cache) dropWholeBucket(id string) int {
	s := c.shardFor(id)
	s.mu.Lock()
	c.countWalk()
	b := s.buckets[id]
	if b == nil || len(b.entries) == 0 {
		s.mu.Unlock()
		return 0
	}
	removed := collect(make([]*Entry, 0, len(b.entries)), b)
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
		for id, b := range s.buckets {
			c.countWalk()
			if len(b.entries) == 0 {
				continue
			}
			removed := collect(make([]*Entry, 0, len(b.entries)), b)
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
