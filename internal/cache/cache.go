// Package cache implements the DSSP's store of materialized query results
// (views). Entries are organized per query template so that invalidation
// can drop whole template buckets in O(1) at the template-inspection level
// and visit individual entries only when statement or view inspection is
// permitted (§2.2–§2.3).
//
// Per the §2.1 assumption the static analysis relies on ("no query whose
// result is subject to invalidation by an insertion or a deletion returns
// an empty result set"), the cache refuses to store empty results: the
// A = 0 facts the analysis draws from integrity constraints are sound only
// under it.
//
// The cache is safe for concurrent use and built for it: the HTTP
// deployment serves queries and updates from concurrent handlers. Template
// buckets are striped across shards, each under its own mutex, so lookups
// and stores on different templates never contend — and an invalidation
// pass only locks the shards of the buckets it actually visits. Which
// buckets those are comes from the invalidation routing index
// (invalidate.Router): the static analysis proves A = 0 pairs can never
// need invalidation, so OnUpdate skips their buckets without inspecting
// anything. The replacement queues of a bounded cache live under their own
// lock, which a lookup never takes, and the decision log under another, so
// no single mutex serializes the node.
package cache

import (
	"sort"
	"sync"
	"sync/atomic"

	"dssp/internal/engine"
	"dssp/internal/invalidate"
	"dssp/internal/obs"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// Entry is one cached query result together with the information the DSSP
// may inspect when invalidating it.
type Entry struct {
	Query  wire.SealedQuery
	Result wire.SealedResult

	// Replacement hooks, used only when the cache is bounded (see
	// replacement.go). inLRU tracks queue membership so concurrent removal
	// paths (invalidation, eviction, replacement) can race safely, inMain
	// says which queue; those and the links are guarded by the cache's
	// lruMu. freq is the saturating hit count, bumped by Lookup without that
	// lock. The three small fields share one word, so a bounded cache costs
	// an unbounded one no bytes per entry.
	prev, next *Entry
	inLRU      bool
	inMain     bool
	freq       atomic.Uint32
}

// newEntry builds the stored form of a result. The query is kept as the
// DSSP may inspect it, less what belonged to the one request that happened
// to fetch it: an entry outlives that request, and must not show its trace
// and span IDs to whoever reads or exports the bucket. The IDs are numbers,
// so clearing them is all it takes.
func newEntry(q wire.SealedQuery, r wire.SealedResult) *Entry {
	q.TraceID, q.ParentSpan = obs.TraceID{}, obs.SpanID{}
	return &Entry{Query: q, Result: r}
}

// view renders the entry for the invalidator.
func (e *Entry) view(app *template.App) invalidate.CachedView {
	var t *template.Template
	if e.Query.TemplateID != "" {
		t = app.Query(e.Query.TemplateID)
	}
	return invalidate.CachedView{
		Template: t,
		Params:   e.Query.Params,
		Result:   e.Result.Result, // nil unless view exposure
	}
}

// Options configures cache behaviour.
type Options struct {
	// Capacity bounds the number of cached entries; when full, entries
	// that were not hit since they were stored go first (replacement.go).
	// 0 means unbounded (the paper's configuration).
	Capacity int

	// DecisionLog bounds the in-memory invalidation-decision log. 0 uses
	// DecisionLogSize. The parity tests and the batch experiment raise it
	// so a whole run's decisions survive for comparison.
	DecisionLog int

	// Obs is the registry the cache's instruments live in. nil creates a
	// private registry (always retrievable via Cache.Obs), so metrics are
	// always on; pass a shared registry to aggregate several components
	// (node + home server, or several simulated nodes).
	Obs *obs.Registry
}

// Stats counts cache activity.
type Stats struct {
	Hits          int
	Misses        int
	Stores        int
	Invalidations int
	Evictions     int
	UpdatesSeen   int

	// BucketsVisited counts template buckets an invalidation pass locked
	// and inspected; BucketsSkipped counts the A = 0 query templates the
	// routing index let OnUpdate route around without even looking for a
	// bucket.
	BucketsVisited int
	BucketsSkipped int

	// BucketWalks counts bucket probes made under a shard lock — the
	// physical cost of invalidation, which batching amortizes. Unlike
	// BucketsVisited (logical decisions, identical however updates are
	// grouped), a probe is counted even when the bucket turns out empty,
	// and a batch probes each bucket of its merged affected set once
	// instead of once per update.
	BucketWalks int
}

// Decision is one entry of the invalidation-decision log: which update
// template was applied against which query template's entries, under
// which strategy class, and how many entries it killed (0 = inspected and
// kept). Trace is the update's trace ID.
type Decision struct {
	Trace          obs.TraceID
	UpdateTemplate string // obs.BlindTemplate when hidden
	QueryTemplate  string // obs.BlindTemplate when hidden
	Class          string
	Dropped        int
}

// DecisionLogSize is the default bound of the in-memory
// invalidation-decision log.
const DecisionLogSize = 256

// numShards is the stripe count for template buckets. Template IDs hash
// onto shards; applications have tens of templates, so 16 stripes keep
// collisions rare while bounding the per-cache footprint.
const numShards = 16

// tmplInstruments caches the per-template counter handles so hot lookups
// pay one map access under the shard lock instead of a registry lookup.
type tmplInstruments struct {
	hits, misses *obs.Counter
}

// shard is one lock stripe of the cache: the template buckets hashing to
// it, its slice of the hit/miss/store counters, and the per-template
// instrument handles for those buckets.
type shard struct {
	mu      sync.Mutex
	buckets map[string]map[string]*Entry // template ID ("" = hidden) -> key -> entry
	perTmpl map[string]*tmplInstruments

	hits, misses, stores int
}

// Cache is the DSSP-side view store.
type Cache struct {
	app  *template.App
	inv  *invalidate.Invalidator
	opts Options

	shards [numShards]*shard

	// lruMu guards the replacement queues and the ghost (bounded caches
	// only). Lock order: a goroutine may acquire lruMu while holding a
	// shard lock (Store's insert and invalidation's unlink nest it), never
	// the reverse — eviction takes the victim's shard lock with no other
	// lock held. Keeping bucket membership and queue membership in one
	// critical section is what makes a removed entry stay removed: the old
	// protocol (never hold both) let a concurrent invalidation slip between
	// a store's bucket insert and its link, resurrecting a dead entry into
	// the queue.
	lruMu       sync.Mutex
	small, main fifo
	smallCap    int // small's share of Capacity
	ghost       ghost

	// decMu guards the decision log, the invalidation/routing stats, and
	// the per-combination invalidation counter handles.
	decMu          sync.Mutex
	decisions      []Decision
	decNext        int
	decFull        bool
	invalidations  int
	bucketsVisited int
	bucketsSkipped int
	decCounters    map[decKey]*obs.Counter

	// allQueryIDs lists every query template ID in application order —
	// the unrouted visit set, precomputed once and shared immutably so
	// fallback passes never rebuild it.
	allQueryIDs []string

	// batchPool recycles the per-batch scratch (plans, visit sets) of
	// OnUpdateBatchCounts.
	batchPool sync.Pool

	updatesSeen atomic.Int64
	bucketWalks atomic.Int64
	evictions   atomic.Int64

	reg        *obs.Registry
	storesC    *obs.Counter
	evictionsC *obs.Counter
	readmitsC  *obs.Counter // bounded caches only
	updatesC   *obs.Counter
	visitedC   *obs.Counter
	skippedC   *obs.Counter
	walksC     *obs.Counter
	batchSizes *obs.Histogram
	entries    *obs.Gauge
}

// New creates an empty cache for an application. The invalidator carries
// the static analysis used at the template-inspection level and the
// routing index OnUpdate steers by.
func New(app *template.App, inv *invalidate.Invalidator, opts Options) *Cache {
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logSize := opts.DecisionLog
	if logSize <= 0 {
		logSize = DecisionLogSize
	}
	c := &Cache{
		app:         app,
		inv:         inv,
		opts:        opts,
		reg:         reg,
		storesC:     reg.Counter(obs.MCacheStores),
		evictionsC:  reg.Counter(obs.MCacheEvictions),
		updatesC:    reg.Counter(obs.MCacheUpdatesSeen),
		visitedC:    reg.Counter(obs.MCacheBucketsVisited),
		skippedC:    reg.Counter(obs.MCacheBucketsSkipped),
		walksC:      reg.Counter(obs.MCacheBucketWalks),
		batchSizes:  reg.Histogram(obs.MCacheBatchSize),
		entries:     reg.Gauge(obs.MCacheEntries),
		decisions:   make([]Decision, logSize),
		decCounters: make(map[decKey]*obs.Counter),
	}
	c.allQueryIDs = make([]string, 0, len(app.Queries))
	for _, qt := range app.Queries {
		c.allQueryIDs = append(c.allQueryIDs, qt.ID)
	}
	if opts.Capacity > 0 {
		c.smallCap = max(1, opts.Capacity/10)
		c.ghost = ghost{max: opts.Capacity, set: make(map[uint64]int)}
		c.readmitsC = reg.Counter(obs.MCacheGhostReadmits)
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			buckets: make(map[string]map[string]*Entry),
			perTmpl: make(map[string]*tmplInstruments),
		}
	}
	return c
}

// Obs returns the registry the cache's instruments live in.
func (c *Cache) Obs() *obs.Registry { return c.reg }

// shardIndex maps a template ID (empty = hidden) to its lock stripe.
// The hash is FNV-1a 32, inlined so the invalidation hot path never
// constructs a hash.Hash: the constants match hash/fnv, so shard
// assignment is identical to the previous implementation.
func shardIndex(templateID string) int {
	h := uint32(2166136261)
	for i := 0; i < len(templateID); i++ {
		h ^= uint32(templateID[i])
		h *= 16777619
	}
	return int(h % numShards)
}

// shardFor maps a template ID (empty = hidden) to its lock stripe.
func (c *Cache) shardFor(templateID string) *shard {
	return c.shards[shardIndex(templateID)]
}

// tmpl returns the cached per-template instruments. Called under s.mu.
func (s *shard) tmpl(c *Cache, id string) *tmplInstruments {
	ti := s.perTmpl[id]
	if ti == nil {
		ti = &tmplInstruments{
			hits:   c.reg.Counter(obs.MCacheHits, obs.L(obs.LTemplate, id)),
			misses: c.reg.Counter(obs.MCacheMisses, obs.L(obs.LTemplate, id)),
		}
		s.perTmpl[id] = ti
	}
	return ti
}

// countWalk tallies one bucket probe made under a shard lock. Safe to
// call while holding the lock — both sinks are atomic.
func (c *Cache) countWalk() {
	c.bucketWalks.Add(1)
	c.walksC.Inc()
}

// decKey identifies one label combination of the invalidation counter.
type decKey struct {
	q, u, class string
}

// record appends one invalidation decision to the bounded log and bumps
// the invalidation counter for its label combination. Counter handles are
// cached per combination (label-set cardinality is templates², tiny), so
// steady-state recording never rebuilds label slices or consults the
// registry.
func (c *Cache) record(d Decision) {
	key := decKey{d.QueryTemplate, d.UpdateTemplate, d.Class}
	c.decMu.Lock()
	ctr := c.decCounters[key]
	if ctr == nil {
		ctr = c.reg.Counter(obs.MCacheInvalidations,
			obs.L(obs.LTemplate, d.QueryTemplate),
			obs.L(obs.LUpdateTemplate, d.UpdateTemplate),
			obs.L(obs.LClass, d.Class),
		)
		c.decCounters[key] = ctr
	}
	c.invalidations += d.Dropped
	c.bucketsVisited++
	c.decisions[c.decNext] = d
	c.decNext++
	if c.decNext == len(c.decisions) {
		c.decNext = 0
		c.decFull = true
	}
	c.decMu.Unlock()
	ctr.Add(int64(d.Dropped))
	c.visitedC.Inc()
}

// Decisions returns a copy of the invalidation-decision log, oldest
// first.
func (c *Cache) Decisions() []Decision {
	c.decMu.Lock()
	defer c.decMu.Unlock()
	var out []Decision
	if c.decFull {
		out = append(out, c.decisions[c.decNext:]...)
	}
	out = append(out, c.decisions[:c.decNext]...)
	return out
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	var st Stats
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Stores += s.stores
		s.mu.Unlock()
	}
	c.decMu.Lock()
	st.Invalidations = c.invalidations
	st.BucketsVisited = c.bucketsVisited
	st.BucketsSkipped = c.bucketsSkipped
	c.decMu.Unlock()
	st.Evictions = int(c.evictions.Load())
	st.UpdatesSeen = int(c.updatesSeen.Load())
	st.BucketWalks = int(c.bucketWalks.Load())
	return st
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for _, b := range s.buckets {
			n += len(b)
		}
		s.mu.Unlock()
	}
	return n
}

// Lookup returns the cached result for a sealed query, if present.
func (c *Cache) Lookup(q wire.SealedQuery) (wire.SealedResult, bool) {
	s := c.shardFor(q.TemplateID)
	s.mu.Lock()
	ti := s.tmpl(c, obs.Tmpl(q.TemplateID))
	var e *Entry
	if b := s.buckets[q.TemplateID]; b != nil {
		e = b[q.Key]
	}
	if e == nil {
		s.misses++
		s.mu.Unlock()
		ti.misses.Inc()
		return wire.SealedResult{}, false
	}
	s.hits++
	res := e.Result
	c.touch(e)
	s.mu.Unlock()
	ti.hits.Inc()
	return res, true
}

// resultLen returns the number of rows in a sealed result, or -1 when the
// result is encrypted and its cardinality is unknown to the DSSP.
func resultLen(r wire.SealedResult) int {
	if r.Result != nil {
		return r.Result.Len()
	}
	return -1
}

// Store caches a sealed result fetched from the home server. Empty results
// are rejected (§2.1); encrypted results (whose cardinality the DSSP cannot
// see) carry an EmptyHint from the trusted side instead.
func (c *Cache) Store(q wire.SealedQuery, r wire.SealedResult, empty bool) {
	if empty || resultLen(r) == 0 {
		return
	}
	e := newEntry(q, r)
	s := c.shardFor(q.TemplateID)
	s.mu.Lock()
	b := s.buckets[q.TemplateID]
	if b == nil {
		b = make(map[string]*Entry)
		s.buckets[q.TemplateID] = b
	}
	old := b[q.Key]
	b[q.Key] = e
	s.stores++
	// Link into a replacement queue inside the same critical section as the
	// bucket insert, so no invalidation can observe the entry in its bucket
	// but not in a queue (or vice versa). Victims are evicted after the lock
	// drops — evict takes the victim's own shard lock.
	victims := c.trackInsert(e, old)
	s.mu.Unlock()
	if old == nil {
		c.entries.Add(1)
	}
	c.storesC.Inc()
	for _, v := range victims {
		c.evict(v)
	}
}

// OnUpdate applies the mixed invalidation strategy for a completed update
// (§2.3): per cached entry, the strategy class follows from the exposure
// levels of the update and of the entry's query. It returns the number of
// entries invalidated. Every per-bucket decision — including "inspected
// and kept" — lands in the decision log and the invalidation counters;
// buckets the routing index proves A = 0 are skipped outright and appear
// in no log (there is no decision to make — the analysis already made it).
//
// A single update is a batch of one: this is the walk of
// OnUpdateBatchCounts with both one-element arrays on the caller's stack.
func (c *Cache) OnUpdate(u wire.SealedUpdate) int {
	us := [1]wire.SealedUpdate{u}
	var counts [1]int
	c.walk(us[:], counts[:])
	return counts[0]
}

// applyToBucket applies one update instance against one non-empty bucket:
// it picks the strategy class from the exposure pair, drops whole buckets
// or individual entries accordingly, and unlinks whatever died from its
// replacement queue. Called under the bucket's shard lock; the caller owns
// the entries gauge and the decision log. walk is its one production
// caller; the test oracle funnels through here too, so the two can differ
// only in which buckets they visit and in what order, which is what the
// parity tests check.
func (c *Cache) applyToBucket(s *shard, id string, qt *template.Template, u wire.SealedUpdate, pu *invalidate.PreparedUpdate, bucket map[string]*Entry, router *invalidate.Router) (invalidate.Class, []*Entry) {
	// All entries in a bucket share a template and hence an exposure.
	var sample *Entry
	for _, e := range bucket {
		sample = e
		break
	}
	class := router.Class(u.Exposure, sample.Query.Exposure)
	var removed []*Entry
	switch class {
	case invalidate.Blind:
		removed = collect(bucket)
		delete(s.buckets, id)
	case invalidate.TemplateInspection:
		if c.inv.DecidePrepared(class, pu, invalidate.CachedView{Template: qt}) == invalidate.Invalidate {
			removed = collect(bucket)
			delete(s.buckets, id)
		}
	default: // statement or view inspection: per-entry decisions
		for key, e := range bucket {
			if c.inv.DecidePrepared(class, pu, e.view(c.app)) == invalidate.Invalidate {
				delete(bucket, key)
				removed = append(removed, e)
			}
		}
	}
	c.unlink(removed)
	return class, removed
}

// collect snapshots a bucket's entries. Called under the bucket's shard
// lock.
func collect(bucket map[string]*Entry) []*Entry {
	out := make([]*Entry, 0, len(bucket))
	for _, e := range bucket {
		out = append(out, e)
	}
	return out
}

// Entries calls f for every cached entry (for consistency audits in
// tests). f must not mutate the cache or call back into it.
func (c *Cache) Entries(f func(*Entry)) {
	for _, s := range c.shards {
		s.mu.Lock()
		for _, b := range s.buckets {
			for _, e := range b {
				f(e)
			}
		}
		s.mu.Unlock()
	}
}

// Dump returns one sorted "templateID|key" line per cached entry: a
// transport-independent fingerprint of cache contents for the adapter
// parity tests.
func (c *Cache) Dump() []string {
	var out []string
	c.Entries(func(e *Entry) {
		out = append(out, e.Query.TemplateID+"|"+e.Query.Key)
	})
	sort.Strings(out)
	return out
}

// PlaintextResult returns the entry's result when it is stored in the
// clear (view exposure), and nil otherwise.
func (e *Entry) PlaintextResult() *engine.Result { return e.Result.Result }
