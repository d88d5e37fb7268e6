package cache

import (
	"sort"
	"strings"
	"time"

	"dssp/internal/invalidate"
	"dssp/internal/obs"
	"dssp/internal/wire"
)

// The invalidation walk. The paper's DSSP learns of completed updates by
// monitoring the update stream (§2.2) — an interval-batched process — so
// updates arrive at the cache in groups, and a single update (OnUpdate) is
// a group of one. walk applies a group in one pass: it merges the routing
// index's affected-template sets across the batch and locks and probes
// each bucket once per batch instead of once per update, applying the
// batch's updates to the bucket in order while it holds the lock. The
// decisions are identical, per update and in update order, whatever the
// grouping: a decision depends only on the update instance and the
// bucket-local state, bucket-local state after k in-order applications is
// the same either way, and cross-bucket state is never consulted. Only
// Stats.BucketWalks — the physical lock-and-probe work — shrinks as
// batches grow. The update-by-update walk the tests compare against is
// oracleOnUpdate in oracle_test.go; it is not production code.
//
// The pass is built to stay off the allocator: per-batch working state
// (the plans, the merged visit set) lives in a pooled batchScratch, visit
// lists are the router's own slices or the cache's precomputed
// all-queries list (both immutable), per-update membership tests go to
// the routing index's A = 0 table instead of a per-plan set, each update's
// inspection work is prepared once (invalidate.PrepareInto, into the
// plan's own PreparedUpdate) instead of once per cached entry, what the
// (update, query template) pair fixes is resolved once per bucket
// (applyToBucket takes the pair's invalidate.PairPlan), and the entries a
// bucket loses are gathered in the scratch's removed slice.

// updatePlan is one batch member's routing decision, made before any lock
// is taken, plus its share of the batch's outcome, emitted to the decision
// log after the walk.
type updatePlan struct {
	u    wire.SealedUpdate
	uLbl string
	pu   invalidate.PreparedUpdate // its arrays are kept across walks

	// blind marks an update the cache cannot steer by: a hidden template
	// ID, or one this application does not know — which only a byzantine
	// client can produce. Either reveals nothing to steer by, so it drops
	// every bucket it reaches.
	blind  bool
	routed bool
	ids    []string // visit order for the decision log; shared, never written

	hidden    Decision // the hidden-bucket decision, first update only
	hasHidden bool
	decs      []Decision // decisions made during the walk, one per bucket
}

// reset readies a recycled plan slot for a new update, keeping the decs
// backing array; walk prepares pu for the update, or leaves it unread.
func (p *updatePlan) reset(u wire.SealedUpdate) {
	clear(p.decs)
	p.decs = p.decs[:0]
	p.u = u
	p.uLbl = obs.Tmpl(u.TemplateID)
	p.blind = false
	p.routed = false
	p.ids = nil
	p.hidden = Decision{}
	p.hasHidden = false
}

// batchScratch is one walk's pooled working state.
type batchScratch struct {
	plans    []updatePlan
	seen     map[string]bool
	perShard [numShards][]string
	removed  []*Entry // one bucket's dead entries; empty between uses
}

// dropped counts the entries a bucket just lost and empties removed for
// the next bucket, clearing it so the pool holds no dead entry.
func (bs *batchScratch) dropped(removed []*Entry) int {
	n := len(removed)
	clear(removed)
	bs.removed = removed[:0]
	return n
}

func (c *Cache) getBatchScratch(n int) *batchScratch {
	bs, _ := c.batchPool.Get().(*batchScratch)
	if bs == nil {
		bs = &batchScratch{seen: make(map[string]bool)}
	}
	for len(bs.plans) < n {
		bs.plans = append(bs.plans, updatePlan{})
	}
	return bs
}

func (c *Cache) putBatchScratch(bs *batchScratch) {
	clear(bs.seen)
	for i := range bs.perShard {
		clear(bs.perShard[i])
		bs.perShard[i] = bs.perShard[i][:0]
	}
	for i := range bs.plans {
		bs.plans[i].reset(wire.SealedUpdate{})
	}
	c.batchPool.Put(bs)
}

// OnUpdateBatchCounts applies a monitoring interval's worth of completed
// updates in one amortized pass. counts[i] is exactly what OnUpdate(us[i])
// would have returned had the updates been applied one at a time.
func (c *Cache) OnUpdateBatchCounts(us []wire.SealedUpdate) []int {
	counts := make([]int, len(us))
	if len(us) == 0 {
		return counts
	}
	// The shared histogram buckets durations at 1µs·2^i; encoding a batch
	// of n updates as n microseconds makes bucket i read "batches of up
	// to 2^i updates" (see obs.MCacheBatchSize). Only batching deployments
	// record it: OnUpdate does not pass through here.
	c.batchSizes.Observe(time.Duration(len(us)) * time.Microsecond)
	c.walk(us, counts)
	return counts
}

// walk is the cache's one invalidation pass: the only function that locks
// shards and walks buckets on behalf of an update. It applies us in order
// and adds to counts[i] the entries us[i] invalidated; us is non-empty and
// counts has its length.
func (c *Cache) walk(us []wire.SealedUpdate, counts []int) {
	c.updatesSeen.Add(int64(len(us)))
	c.updatesC.Add(int64(len(us)))

	router := c.inv.Router()
	bs := c.getBatchScratch(len(us))
	defer c.putBatchScratch(bs)
	plans := bs.plans[:len(us)]
	anyBlind := false
	for i, u := range us {
		p := &plans[i]
		p.reset(u)
		ut := c.app.Update(u.TemplateID)
		if u.TemplateID == "" || ut == nil {
			p.blind = true
			anyBlind = true
			continue
		}
		ids, known := router.Affected(u.TemplateID)
		p.routed = known
		if !p.routed {
			// An analysis that does not cover this update template:
			// visit every query template, in app order.
			ids = c.allQueryIDs
		}
		p.ids = ids
		c.inv.PrepareInto(&p.pu, invalidate.UpdateInstance{Template: ut, Params: u.Params})
	}

	// Hidden-template entries can only be handled blindly; every update
	// drops the hidden bucket, so one probe serves the whole batch and
	// the batch's first update owns the decision (applied one at a time,
	// later updates find the bucket already empty and record nothing).
	{
		s := c.shardFor("")
		s.mu.Lock()
		c.countWalk()
		if b := s.buckets[""]; b != nil && len(b.entries) > 0 {
			removed := collect(bs.removed, b)
			delete(s.buckets, "")
			c.unlink(removed)
			s.mu.Unlock()
			n := bs.dropped(removed)
			c.entries.Add(int64(-n))
			p := &plans[0]
			p.hidden = Decision{Trace: p.u.TraceID, UpdateTemplate: p.uLbl, QueryTemplate: obs.BlindTemplate, Class: invalidate.Blind.String(), Dropped: n}
			p.hasHidden = true
			counts[0] += n
		} else {
			s.mu.Unlock()
		}
	}

	// The merged visit set: the union of the batch's affected-template
	// lists, grouped by shard. Blind members additionally visit every
	// bucket that exists when their shard comes up (buckets only shrink
	// while a shard is locked — no store runs inside it — so nothing is
	// missed). Each shard lock is held across its whole walk: releasing it
	// mid-iteration to unlink entries would let a concurrent Store
	// insert into a bucket map being ranged over; unlink only takes lruMu,
	// which nests under shard locks.
	for pi := range plans {
		for _, id := range plans[pi].ids {
			if bs.seen[id] || c.app.Query(id) == nil {
				continue
			}
			bs.seen[id] = true
			si := shardIndex(id)
			bs.perShard[si] = append(bs.perShard[si], id)
		}
	}

	for si, s := range c.shards {
		ids := bs.perShard[si]
		if len(ids) == 0 && !anyBlind {
			continue
		}
		s.mu.Lock()
		if anyBlind {
			for id := range s.buckets {
				if id != "" && !bs.seen[id] {
					bs.seen[id] = true
					ids = append(ids, id)
				}
			}
			bs.perShard[si] = ids
		}
		freed := 0
		for _, id := range ids {
			c.countWalk()
			b := s.buckets[id]
			if b == nil || len(b.entries) == 0 {
				continue
			}
			qt := c.app.Query(id)
			for k := range plans {
				if b == nil || len(b.entries) == 0 {
					break // emptied by an earlier update of this batch
				}
				p := &plans[k]
				if p.blind {
					removed := collect(bs.removed, b)
					delete(s.buckets, id)
					c.unlink(removed)
					n := bs.dropped(removed)
					freed += n
					counts[k] += n
					p.decs = append(p.decs, Decision{Trace: p.u.TraceID, UpdateTemplate: p.uLbl, QueryTemplate: id, Class: invalidate.Blind.String(), Dropped: n})
					b = nil
					continue
				}
				// Membership in this update's affected set: for a routed
				// update that is exactly the pairs the analysis could not
				// prove A = 0; an unrouted update visits every bucket.
				if qt == nil || (p.routed && router.AZero(p.u.TemplateID, id)) {
					continue // not an affected bucket for this update
				}
				class, removed := c.applyToBucket(s, id, qt, p.u, &p.pu, b, router, bs.removed)
				n := bs.dropped(removed)
				freed += n
				counts[k] += n
				p.decs = append(p.decs, Decision{Trace: p.u.TraceID, UpdateTemplate: p.uLbl, QueryTemplate: id, Class: class.String(), Dropped: n})
				if _, live := s.buckets[id]; !live {
					b = nil // whole-bucket drop
				}
			}
		}
		s.mu.Unlock()
		if freed > 0 {
			c.entries.Add(int64(-freed))
		}
	}

	// Emit the decision log update-major, so that it reads the same
	// however the updates were grouped: the hidden-bucket decision first,
	// then — per update — its bucket decisions in affected-list order
	// (blind updates: sorted by bucket ID), then its routing skips.
	for pi := range plans {
		p := &plans[pi]
		if p.hasHidden {
			c.record(p.hidden)
		}
		if p.blind {
			sort.Slice(p.decs, func(i, j int) bool {
				return strings.Compare(p.decs[i].QueryTemplate, p.decs[j].QueryTemplate) < 0
			})
			for _, d := range p.decs {
				c.record(d)
			}
			continue
		}
		if len(p.decs) > 0 {
			// decs holds at most one decision per bucket, appended in
			// shard-walk order; replay them in affected-list order.
			for _, id := range p.ids {
				for di := range p.decs {
					if p.decs[di].QueryTemplate == id {
						c.record(p.decs[di])
						break
					}
				}
			}
		}
		if p.routed {
			if n, ok := router.Skipped(p.u.TemplateID); ok && n > 0 {
				c.decMu.Lock()
				c.bucketsSkipped += n
				c.decMu.Unlock()
				c.skippedC.Add(int64(n))
			}
		}
	}
}
