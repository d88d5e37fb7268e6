package cache

import (
	"dssp/internal/invalidate"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

// The bucket index (DESIGN.md, "The bucket index"). A bucket of a query
// template with an index slot (invalidate.SlotOf) chains its entries by
// their key at the slot, through the entries themselves, so a store
// allocates nothing beyond the chain map's growth; entries with too few
// parameters sit on a loose list of always-candidates.
// The walk decides the loose list and the chains of the keys a pair's plan
// names (PairPlan.Probe), or every entry when it names none. The index
// changes only under the shard lock, with the bucket: put and remove keep
// it, and a whole-bucket drop deletes it with the bucket.

// bucket is one query template's cached entries: by key, and indexed on
// the template's slot.
type bucket struct {
	entries map[string]*Entry
	slot    invalidate.Slot // Pos < 0: the template has no slot; chains and loose stay empty

	chains map[sqlparse.Key]*Entry // key at the slot -> the chain's first entry; nil until one is keyed
	loose  *Entry                  // the always-candidates
}

// newBucket makes an empty bucket for the query template qt, which is
// nil for the hidden bucket and for IDs the application does not define:
// those are not indexed.
func newBucket(qt *template.Template) *bucket {
	b := &bucket{entries: make(map[string]*Entry), slot: invalidate.Slot{Pos: -1}}
	if qt != nil {
		b.slot = invalidate.SlotOf(qt)
	}
	return b
}

// put adds e under its key and returns the entry it replaced, if any,
// which has left the index.
func (b *bucket) put(e *Entry) *Entry {
	old := b.entries[e.Query.Key]
	b.entries[e.Query.Key] = e
	if old != nil {
		b.unindex(old)
	}
	b.index(e)
	return old
}

// remove deletes e, which sits in b, from its key and its chain.
func (b *bucket) remove(e *Entry) {
	delete(b.entries, e.Query.Key)
	b.unindex(e)
}

// keyOf returns e's key at the slot, and false when e belongs on the
// loose list.
func (b *bucket) keyOf(e *Entry) (sqlparse.Key, bool) {
	if p := e.Query.Params; len(p) >= b.slot.Need {
		return p[b.slot.Pos].Key(), true
	}
	return sqlparse.Key{}, false
}

// index links e at the head of its chain, or of the loose list.
func (b *bucket) index(e *Entry) {
	if b.slot.Pos < 0 {
		return
	}
	k, keyed := b.keyOf(e)
	e.loose = !keyed
	var next *Entry
	if e.loose {
		next, b.loose = b.loose, e
	} else {
		if b.chains == nil {
			b.chains = make(map[sqlparse.Key]*Entry)
		}
		next = b.chains[k]
		b.chains[k] = e
	}
	e.ixPrev, e.ixNext = nil, next
	if next != nil {
		next.ixPrev = e
	}
}

// unindex unlinks e from its chain or the loose list, forgetting a chain
// it leaves empty.
func (b *bucket) unindex(e *Entry) {
	if b.slot.Pos < 0 {
		return
	}
	if e.ixNext != nil {
		e.ixNext.ixPrev = e.ixPrev
	}
	switch {
	case e.ixPrev != nil:
		e.ixPrev.ixNext = e.ixNext
	case e.loose:
		b.loose = e.ixNext
	case e.ixNext != nil:
		k, _ := b.keyOf(e)
		b.chains[k] = e.ixNext
	default:
		k, _ := b.keyOf(e)
		delete(b.chains, k)
	}
	e.ixPrev, e.ixNext = nil, nil
}

// decideChain decides the entries of one chain from its first entry e,
// removing each one the plan invalidates and appending it to removed.
func (b *bucket) decideChain(e *Entry, plan *invalidate.PairPlan, class invalidate.Class, pu *invalidate.PreparedUpdate, removed []*Entry) []*Entry {
	for e != nil {
		next := e.ixNext
		if plan.Decide(class, pu, e.Query.Params, e.Result.Result) == invalidate.Invalidate {
			b.remove(e)
			removed = append(removed, e)
		}
		e = next
	}
	return removed
}
