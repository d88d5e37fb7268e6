// Package cache implements the DSSP's store of materialized query results
// (views). Entries are organized per query template so that invalidation
// can drop whole template buckets in O(1) at the template-inspection level
// and visit individual entries only when statement or view inspection is
// permitted (§2.2–§2.3). Even then it visits only the entries an update
// can affect: each bucket is indexed by the parameter its decisions
// compare by equality (index.go), so an update that binds that column
// decides the entries holding its value, and scans the bucket only when
// the pair's plan has no such parameter to probe.
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
	"unsafe"

	"dssp/internal/engine"
	"dssp/internal/invalidate"
	"dssp/internal/obs"
	"dssp/internal/sqlparse"
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
	// lock.
	prev, next *Entry

	// Bucket index hooks (index.go), guarded by the shard lock: the links
	// of the entry's chain, or of the loose list when loose is set.
	ixPrev, ixNext *Entry

	// The small fields of both share one word, so a bounded cache costs an
	// unbounded one no bytes per entry, and the loose flag costs none.
	inLRU  bool
	inMain bool
	loose  bool
	freq   atomic.Uint32
}

// newEntry builds the stored form of a result, in one box: the entry, the
// result it keeps in the clear, and the values and bytes both hold, copied
// there from the lent query and answer it is handed (wire.KeepEntry). The
// query is kept as the DSSP may inspect it, less what belonged to the one
// request that happened to fetch it: an entry outlives that request, and
// must not show its trace and span IDs to whoever reads or exports the
// bucket. The payload goes too: nothing at a node reads an entry's —
// lookup, invalidation and migration read the key, the template, the
// parameters and the result — so a bucket export carries no payload. A
// view result's column names are the template's, which every entry of it
// shares (columns).
func (c *Cache) newEntry(q wire.SealedQuery, r wire.SealedResult) *Entry {
	cols := c.columns[q.TemplateID]
	n, m := wire.EntrySize(&q, &r, cols)
	e, res, vals, b := newBox(r.Cipher == nil, n, m)
	e.Query, e.Result = wire.KeepEntry(&q, &r, cols, res, vals, b)
	return e
}

// What a kept miss allocates is one box: the entry, the result it keeps in
// the clear when it is not sealed, and, beside them, room for the entry's
// values — its parameters, then a view result's — and its bytes — its key
// and its parameters' strings, then a cipher or a view result's strings.
// An entry's strings are frozen views of its bytes, so a box is never
// reused: it lives as long as the entry, or a result handed out of it, is
// held.
type (
	cipherBox[V, B any] struct {
		Entry
		vals V
		b    B
	}
	viewBox[V, B any] struct {
		Entry
		res  engine.Result
		vals V
		b    B
	}
)

// boxClasses are the box sizes an entry comes in, smallest first: an
// entry takes the first of its kind that holds its values and bytes, and
// one that fits none a box with no room, its values and bytes each in an
// array of its own. Each class fills one of the allocator's size classes
// exactly — past 512 bytes with the 8-byte header the allocator puts
// before an object that holds pointers — so a box wastes no byte the
// allocator would have rounded away, and the classes are the shapes the
// applications' scripts store most (EXPERIMENTS.md, "A kept miss is one
// allocation"): a sealed result of a statement with at most one
// parameter, and a view result of a few values. Together they hold an
// entry in no more memory than the five objects it was before.
var boxClasses = [...]struct {
	view  bool
	n, m  int
	alloc func() (*Entry, *engine.Result, []sqlparse.Value, []byte)
}{
	{false, 1, 80, cipherClass[[1]sqlparse.Value, [80]byte]},   // 352 bytes
	{false, 1, 112, cipherClass[[1]sqlparse.Value, [112]byte]}, // 384 bytes
	{false, 1, 144, cipherClass[[1]sqlparse.Value, [144]byte]}, // 416 bytes
	{true, 3, 56, viewClass[[3]sqlparse.Value, [56]byte]},      // 448 bytes
	{true, 5, 24, viewClass[[5]sqlparse.Value, [24]byte]},      // 480 bytes
	{true, 8, 16, viewClass[[8]sqlparse.Value, [16]byte]},      // 568 bytes, 576 with the allocator's header
	{true, 16, 80, viewClass[[16]sqlparse.Value, [80]byte]},    // 888 bytes, 896 with the allocator's header
}

// newBox allocates the box of an entry of n values and m bytes, whose
// result is in the clear when view is set.
func newBox(view bool, n, m int) (*Entry, *engine.Result, []sqlparse.Value, []byte) {
	for i := range boxClasses {
		if c := &boxClasses[i]; c.view == view && n <= c.n && m <= c.m {
			e, res, vals, b := c.alloc()
			return e, res, vals[:n], b[:m]
		}
	}
	var e *Entry
	var res *engine.Result
	if view {
		x := new(viewBox[struct{}, struct{}])
		e, res = &x.Entry, &x.res
	} else {
		e = new(Entry)
	}
	return e, res, make([]sqlparse.Value, n), make([]byte, m)
}

// cipherClass allocates a box for a sealed result, with room for the
// values V and the bytes B hold.
func cipherClass[V, B any]() (*Entry, *engine.Result, []sqlparse.Value, []byte) {
	x := new(cipherBox[V, B])
	return &x.Entry, nil, valuesIn(&x.vals), bytesIn(&x.b)
}

// viewClass allocates a box for a result in the clear, as cipherClass
// does for a sealed one.
func viewClass[V, B any]() (*Entry, *engine.Result, []sqlparse.Value, []byte) {
	x := new(viewBox[V, B])
	return &x.Entry, &x.res, valuesIn(&x.vals), bytesIn(&x.b)
}

// valuesIn returns the array of values *a is as a slice; bytesIn the array
// of bytes *a is.
func valuesIn[V any](a *V) []sqlparse.Value {
	return unsafe.Slice((*sqlparse.Value)(unsafe.Pointer(a)), unsafe.Sizeof(*a)/unsafe.Sizeof(sqlparse.Value{}))
}

func bytesIn[B any](a *B) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(a)), unsafe.Sizeof(*a))
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
	buckets map[string]*bucket // template ID ("" = hidden) -> its entries
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

	// columns holds each query template's result column names once, by
	// template ID (wire.Columns): every view entry of the template shares
	// them. Read it, never write it.
	columns map[string][]string

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
		columns:     wire.Columns(app),
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
			buckets: make(map[string]*bucket),
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

// bucket returns the bucket of a template ID, creating it if absent.
// Called under the ID's shard lock.
func (c *Cache) bucket(s *shard, id string) *bucket {
	b := s.buckets[id]
	if b == nil {
		b = newBucket(c.app.Query(id))
		s.buckets[id] = b
	}
	return b
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
			n += len(b.entries)
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
		e = b.entries[q.Key]
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

// Store caches a sealed result fetched from the home server. Empty results
// are rejected (§2.1); encrypted results (whose cardinality the DSSP cannot
// see) carry an EmptyHint from the trusted side instead. q and r may be
// lent for the call — the miss's statement, in its pooled call, and the
// home's answer, in its scratch or its frame — and the entry copies them
// (newEntry). Store returns the result as the entry holds it, the cache's
// own and immutable, for the miss to answer with; ok is false when it
// stored nothing.
func (c *Cache) Store(q wire.SealedQuery, r wire.SealedResult, empty bool) (kept wire.SealedResult, ok bool) {
	if empty || r.Rows() == 0 {
		return wire.SealedResult{}, false
	}
	e := c.newEntry(q, r)
	s := c.shardFor(q.TemplateID)
	s.mu.Lock()
	old := c.bucket(s, q.TemplateID).put(e)
	s.stores++
	// Link into a replacement queue inside the same critical section as the
	// bucket insert, so no invalidation can observe the entry in its bucket
	// but not in a queue (or vice versa). Victims are evicted after the lock
	// drops — evict takes the victim's own shard lock. A store evicts one
	// entry or two as a rule, so they are gathered on the stack.
	var buf [4]*Entry
	victims := c.trackInsert(e, old, buf[:0])
	s.mu.Unlock()
	if old == nil {
		c.entries.Add(1)
	}
	c.storesC.Inc()
	for _, v := range victims {
		c.evict(v)
	}
	return e.Result, true
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
// it picks the strategy class from the exposure pair, resolves the
// (update, query template) pair's plan once, drops whole buckets or
// decides the entries the plan's probe names (index.go) — every entry
// when it names none — and unlinks whatever died from its replacement
// queue. Called under the bucket's shard lock; the caller owns the
// entries gauge and the decision log. The dead entries are appended to
// removed, which the caller passes empty and may reuse once it has
// counted them. walk is its one caller; the test oracle decides every
// entry of a statement- or view-inspection bucket instead, so comparing
// the two checks the index as well as the walk.
func (c *Cache) applyToBucket(s *shard, id string, qt *template.Template, u wire.SealedUpdate, pu *invalidate.PreparedUpdate, b *bucket, router *invalidate.Router, removed []*Entry) (invalidate.Class, []*Entry) {
	// All entries in a bucket share a template and hence an exposure.
	var sample *Entry
	for _, e := range b.entries {
		sample = e
		break
	}
	class := router.Class(u.Exposure, sample.Query.Exposure)
	plan := c.inv.Plan(pu.Update().Template, qt)
	switch class {
	case invalidate.Blind:
		removed = collect(removed, b)
		delete(s.buckets, id)
	case invalidate.TemplateInspection:
		if plan.Decide(class, pu, nil, nil) == invalidate.Invalidate {
			removed = collect(removed, b)
			delete(s.buckets, id)
		}
	default: // statement or view inspection: per-entry decisions
		keys, n, probed := plan.Probe(pu)
		if !probed {
			for _, e := range b.entries {
				if plan.Decide(class, pu, e.Query.Params, e.Result.Result) == invalidate.Invalidate {
					b.remove(e)
					removed = append(removed, e)
				}
			}
			break
		}
		removed = b.decideChain(b.loose, plan, class, pu, removed)
		for _, k := range keys[:n] {
			removed = b.decideChain(b.chains[k], plan, class, pu, removed)
		}
	}
	c.unlink(removed)
	return class, removed
}

// collect appends a bucket's entries to dst. Called under the bucket's
// shard lock.
func collect(dst []*Entry, b *bucket) []*Entry {
	for _, e := range b.entries {
		dst = append(dst, e)
	}
	return dst
}

// Entries calls f for every cached entry (for consistency audits in
// tests). f must not mutate the cache or call back into it.
func (c *Cache) Entries(f func(*Entry)) {
	for _, s := range c.shards {
		s.mu.Lock()
		for _, b := range s.buckets {
			for _, e := range b.entries {
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
