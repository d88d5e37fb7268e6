package cache

import (
	"sort"

	"dssp/internal/obs"
	"dssp/internal/wire"
)

// Sealed-bucket migration: when ring membership changes, the shard
// router moves whole template buckets between nodes. Everything exported
// is material this cache already held sealed — ciphertext, deterministic
// tokens, routing metadata — so the move needs no keys. Exports are
// non-destructive copies (the old owner keeps serving hits until the
// epoch flips; the router drops the source buckets afterwards), imports
// are not stores (the entry was earned by a miss on some node once;
// migrating it is bookkeeping, not cache activity), and drops are not
// invalidations (no decision is being made about data validity, so the
// decision log — the parity fingerprint across deployments — is
// untouched).

// ExportBuckets copies the sealed entries of the named template buckets,
// assigning each an ordinal: position in eviction order among the exported
// set, first to go first — the small queue oldest to newest, then main
// oldest to newest. On an unbounded cache (no queues) the ordinal falls
// back to the deterministic template|key order. The returned slice is
// sorted by ordinal.
func (c *Cache) ExportBuckets(ids []string) []wire.BucketEntry {
	type exported struct {
		entry wire.BucketEntry
		ptr   *Entry
	}
	var out []exported
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		s := c.shardFor(id)
		s.mu.Lock()
		for _, e := range s.buckets[id] {
			// Query and Result are shared immutably with the live entry;
			// the cache never mutates either in place.
			out = append(out, exported{wire.BucketEntry{Query: e.Query, Result: e.Result}, e})
		}
		s.mu.Unlock()
	}

	// Rank the exported entries by eviction order. The queues are read in
	// their own critical section after the shard locks drop (lock order:
	// lruMu nests inside shard locks, so holding both across shards is not
	// an option); an entry that leaves its queue in the window simply keeps
	// no rank and sorts first.
	rank := make(map[*Entry]int, len(out))
	if c.opts.Capacity > 0 {
		inSet := make(map[*Entry]bool, len(out))
		for _, x := range out {
			inSet[x.ptr] = true
		}
		c.lruMu.Lock()
		r := 0
		for _, q := range []*fifo{&c.small, &c.main} {
			for e := q.tail; e != nil; e = e.prev {
				if inSet[e] {
					rank[e] = r
					r++
				}
			}
		}
		c.lruMu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		ri, iok := rank[out[i].ptr]
		rj, jok := rank[out[j].ptr]
		if iok != jok {
			return !iok // unranked sorts first
		}
		if iok && ri != rj {
			return ri < rj
		}
		ki := out[i].entry.Query.TemplateID + "|" + out[i].entry.Query.Key
		kj := out[j].entry.Query.TemplateID + "|" + out[j].entry.Query.Key
		return ki < kj
	})
	entries := make([]wire.BucketEntry, len(out))
	for i := range out {
		out[i].entry.Ordinal = i
		entries[i] = out[i].entry
	}
	return entries
}

// ImportBuckets inserts migrated sealed entries in ordinal order into the
// main queue (first to go first, so the receiving cache's eviction order
// extends the sender's) and returns how many were taken. Keys the cache
// already holds are skipped — the local copy is at least as fresh, since
// both sides see every confirmed invalidation during the handoff window.
// Imports do not count as stores; they land in a dedicated counter.
func (c *Cache) ImportBuckets(entries []wire.BucketEntry) int {
	sorted := append([]wire.BucketEntry(nil), entries...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Ordinal < sorted[j].Ordinal })
	imported := 0
	for i := range sorted {
		q, r := sorted[i].Query, sorted[i].Result
		if resultLen(r) == 0 {
			continue // mirror Store's empty-result policy
		}
		e := newEntry(q, r)
		s := c.shardFor(q.TemplateID)
		s.mu.Lock()
		b := s.buckets[q.TemplateID]
		if b == nil {
			b = make(map[string]*Entry)
			s.buckets[q.TemplateID] = b
		}
		if b[q.Key] != nil {
			s.mu.Unlock()
			continue
		}
		b[q.Key] = e
		victims := c.linkWarm(e)
		s.mu.Unlock()
		c.entries.Add(1)
		for _, v := range victims {
			c.evict(v)
		}
		imported++
	}
	if imported > 0 {
		c.reg.Counter(obs.MCacheImported).Add(int64(imported))
	}
	return imported
}

// DropBuckets removes the named template buckets wholesale after their
// entries have migrated, returning how many entries were dropped. Unlike
// invalidation it records no decisions and counts no bucket walks — the
// entries are not being judged stale, only rehomed.
func (c *Cache) DropBuckets(ids []string) int {
	dropped := 0
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		s := c.shardFor(id)
		s.mu.Lock()
		bucket := s.buckets[id]
		if len(bucket) == 0 {
			s.mu.Unlock()
			continue
		}
		removed := collect(bucket)
		delete(s.buckets, id)
		c.unlink(removed)
		s.mu.Unlock()
		c.entries.Add(int64(-len(removed)))
		dropped += len(removed)
	}
	return dropped
}
