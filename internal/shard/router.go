package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dssp/internal/core"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/wire"
)

// Backend is one DSSP node as the router sees it: a sealed-message
// surface only, because the router — untrusted, like the nodes — never
// opens anything. Its Front is what a client sees of the node, and what
// the router itself offers its clients. Invalidate is the fan-out half of
// the update pathway:
// the update is already confirmed at the home server and the node only
// monitors it (no second execution). The bucket methods move sealed
// cache entries between nodes during a ring rebalance: everything that
// travels is ciphertext plus routing metadata, so the router can warm a
// new owner without ever holding a key.
type Backend interface {
	pipeline.Front
	// Invalidate carries the update's confirmed home sequence so the
	// target node can raise its freshness floor before it next serves a
	// miss from a read replica.
	Invalidate(ctx context.Context, su wire.SealedUpdate, seq uint64) (invalidated int, err error)
	// ExportBuckets copies the sealed entries of the named template
	// buckets, in eviction order (first to go first), without disturbing them.
	ExportBuckets(ctx context.Context, templateIDs []string) ([]wire.BucketEntry, error)
	// ImportBuckets inserts migrated sealed entries, skipping keys the
	// node already holds, and returns how many it took.
	ImportBuckets(ctx context.Context, entries []wire.BucketEntry) (int, error)
	// DropBuckets removes the named template buckets after their entries
	// have moved, returning how many entries were dropped. Not an
	// invalidation: the decision log is untouched.
	DropBuckets(ctx context.Context, templateIDs []string) (int, error)
}

// DefaultMaxFanout bounds how many invalidation pushes one update issues
// concurrently.
const DefaultMaxFanout = 4

// DefaultRetryBackoff is the pause before the router's single re-send of
// a failed idempotent proxied query.
const DefaultRetryBackoff = 100 * time.Millisecond

// Options tune a Router.
type Options struct {
	// MaxFanout caps concurrent invalidation pushes per update batch.
	// 0 means DefaultMaxFanout.
	MaxFanout int
	// BlindCacheSize bounds the router-side blind-key cache (sealed
	// lookup key → node pins that survive ring changes). 0 means
	// DefaultBlindCacheSize; negative disables the cache.
	BlindCacheSize int
	// RetryBackoff is the pause before the query path's single retry.
	// 0 means DefaultRetryBackoff.
	RetryBackoff time.Duration
}

// Router steers sealed traffic across a fleet of DSSP nodes. To its
// caller it is what one node is — Query and Update, the sealed half of
// Backend — and it runs neither of Figure 2's pathways itself: it holds no
// entries and monitors no updates, it forwards. Each owning node's pipeline
// looks up, coalesces concurrent misses (a sealed key has one owner per
// epoch), stores and invalidates.
//
// Queries go to the one node owning their template (or sealed key, for
// blind traffic). An update executes through exactly one node's full
// update pathway — that node invalidates its own cache as usual — and
// the router then pushes invalidation-only messages, in parallel under a
// concurrency bound, to the other nodes the Planner could not prove
// untouched. Nodes outside the plan never hear about the update at all:
// the skipped messages are the scale-out payoff of the static analysis.
//
// Membership is live: Join adds a node (optionally streaming the moved
// template buckets' sealed entries to it first, so its cache is warm the
// moment the epoch flips) and Leave removes one (optionally streaming
// the departing node's buckets to their survivors). During the handoff
// window invalidation fans out to the union of both epochs' owners, so a
// migrated copy can never go stale before it starts serving.
type Router struct {
	planner *Planner
	tracer  *obs.Tracer
	reg     *obs.Registry
	sem     chan struct{}
	backoff time.Duration

	// bmu guards backends, keyed by node ID. IDs are never reused, so a
	// ring point always refers to at most one backend ever.
	bmu      sync.RWMutex
	backends map[int]Backend

	// migMu orders membership changes against updates. Join and Leave
	// hold it for writing, so at most one is in flight and none stages
	// while an update is between its exec and its fan-out: otherwise a
	// bucket exported from its old owner before the update's push lands
	// there would reach the new owner, which the update's plan never
	// named, and stay stale. Update holds it for reading; queries never
	// take it. nextNode is the next never-used node ID — monotonic, so an
	// ID freed by a leave is never minted again even after the fleet
	// shrinks below it.
	migMu    sync.RWMutex
	nextNode int

	blind *BlindCache // nil when disabled

	fanoutNodes   *obs.Histogram
	fanoutSkipped *obs.Counter
	broadcasts    *obs.Counter

	// Cached handles of dssp_router_node_seconds per (node, kind) and of
	// dssp_request_seconds per (kind, template). Node IDs are never
	// reused, so a cached handle never goes stale.
	nodeHists obs.HandleCache[nodeKind, *obs.Histogram]
	reqHists  obs.HandleCache[requestKey, *obs.Histogram]
}

type nodeKind struct {
	node int
	kind string
}

type requestKey struct{ kind, tmpl string }

// NewRouter builds a router, and the Planner that is its ownership map,
// over a fleet: backends[i] is node i. tracer supplies the clock and
// registry for the router's instruments; nil disables them.
func NewRouter(analysis *core.Analysis, backends []Backend, tracer *obs.Tracer, opts Options) *Router {
	if opts.MaxFanout <= 0 {
		opts.MaxFanout = DefaultMaxFanout
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = DefaultRetryBackoff
	}
	r := &Router{
		planner:  NewPlanner(len(backends), analysis),
		tracer:   tracer,
		sem:      make(chan struct{}, opts.MaxFanout),
		backoff:  opts.RetryBackoff,
		backends: make(map[int]Backend, len(backends)),
		nextNode: len(backends),
	}
	for i, b := range backends {
		r.backends[i] = b
	}
	if opts.BlindCacheSize >= 0 {
		r.blind = NewBlindCache(opts.BlindCacheSize)
	}
	if tracer != nil {
		r.reg = tracer.Registry()
	}
	if r.reg != nil {
		// Eager registration: every routed deployment exposes the same
		// metric shape, busy or idle. Per-node latency histograms and the
		// elastic-fleet counters are registered lazily on first use.
		r.fanoutNodes = r.reg.Histogram(obs.MRouterFanoutNodes)
		r.fanoutSkipped = r.reg.Counter(obs.MRouterFanoutSkipped)
		r.broadcasts = r.reg.Counter(obs.MRouterBroadcasts)
	}
	return r
}

// Planner returns the router's ownership map and fan-out planner.
func (r *Router) Planner() *Planner { return r.planner }

// Epoch returns the current ring epoch.
func (r *Router) Epoch() uint64 { return r.planner.Epoch() }

// Members returns the sorted live node IDs.
func (r *Router) Members() []int { return r.planner.Members() }

// backend returns the live backend for a node, or nil.
func (r *Router) backend(ni int) Backend {
	r.bmu.RLock()
	defer r.bmu.RUnlock()
	return r.backends[ni]
}

// count bumps a lazily-registered counter.
func (r *Router) count(name string, labels ...obs.Label) {
	if r.reg != nil {
		r.reg.Counter(name, labels...).Inc()
	}
}

// now reads the router's clock (zero without a tracer).
func (r *Router) now() time.Duration {
	if r.tracer == nil {
		return 0
	}
	return r.tracer.Now()
}

// observeNode records one proxied round trip in the per-node latency
// histogram.
func (r *Router) observeNode(ni int, kind string, start time.Duration) {
	if r.reg == nil {
		return
	}
	r.nodeHists.Get(nodeKind{ni, kind}, func() *obs.Histogram {
		return r.reg.Histogram(obs.MRouterNodeSeconds, obs.L(obs.LNode, strconv.Itoa(ni)), obs.L(obs.LKind, kind))
	}).Observe(r.now() - start)
}

// request records one statement served end to end in dssp_request_seconds,
// the histogram a node keeps for the same thing.
func (r *Router) request(kind, templateID string, start time.Duration) {
	if r.reg == nil {
		return
	}
	tmpl := obs.Tmpl(templateID)
	r.reqHists.Get(requestKey{kind, tmpl}, func() *obs.Histogram {
		return r.reg.Histogram(obs.MRequestSeconds, obs.L(obs.LKind, kind), obs.L(obs.LTemplate, tmpl))
	}).Observe(r.now() - start)
}

// proxyError counts one failed proxied call (after the backend's own
// retry gave up). Registered lazily on first error, like the httpapi
// error counters.
func (r *Router) proxyError(kind string) {
	r.count(obs.MRouterProxyErrors, obs.L(obs.LKind, kind))
}

// routeQuery resolves a sealed query's target node. Template traffic
// follows the current ring. Blind traffic consults the blind-key cache
// first: a remembered key keeps going to the node that built its entry
// for as long as that node is live, so a ring change doesn't orphan warm
// blind entries; the pin is re-recorded as blind-seen so invalidation
// fan-out keeps covering it.
func (r *Router) routeQuery(sq wire.SealedQuery) int {
	if sq.TemplateID != "" || r.blind == nil {
		return r.planner.NoteQuery(sq)
	}
	if ni, ok := r.blind.Lookup(sq.Key, r.planner.IsMember); ok {
		r.count(obs.MRouterBlindCacheHits)
		r.planner.NoteBlind(ni)
		return ni
	}
	r.count(obs.MRouterBlindCacheMiss)
	ni := r.planner.NoteQuery(sq)
	r.blind.Put(sq.Key, ni)
	return ni
}

// queryNode runs one proxied query attempt against a node, with its own
// route span and latency sample.
func (r *Router) queryNode(ctx context.Context, ni int, sq wire.SealedQuery) (wire.SealedResult, bool, error) {
	b := r.backend(ni)
	if b == nil {
		return wire.SealedResult{}, false, fmt.Errorf("shard: node %d has no live backend", ni)
	}
	sp := r.tracer.StartSpan(sq.TraceID, sq.ParentSpan, obs.StageRoute, obs.Tmpl(sq.TemplateID)).
		WithNode(strconv.Itoa(ni))
	if id := sp.ID(); id != "" {
		sq.ParentSpan = id
	}
	start := r.now()
	res, hit, err := b.Query(ctx, sq)
	sp.End()
	r.observeNode(ni, obs.KindQuery, start)
	return res, hit, err
}

// Query proxies the sealed query to its owning node and reports that
// node's hit or miss. Queries are idempotent, so a failed proxy gets the
// same single retry-with-backoff the invalidation fan-out already enjoys
// — after re-resolving the owner, since the failure may be a membership
// change (a just-joined node's listener still coming up, a killed node)
// that a re-route fixes outright.
func (r *Router) Query(ctx context.Context, sq wire.SealedQuery) (wire.SealedResult, bool, error) {
	start := r.now()
	res, hit, err := r.queryNode(ctx, r.routeQuery(sq), sq)
	if err != nil && ctx.Err() == nil {
		r.count(obs.MRouterQueryRetries)
		t := time.NewTimer(r.backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
		if ctx.Err() == nil {
			res, hit, err = r.queryNode(ctx, r.routeQuery(sq), sq)
		}
	}
	if err != nil {
		r.proxyError(obs.KindQuery)
		return wire.SealedResult{}, false, err
	}
	r.request(obs.KindQuery, sq.TemplateID, start)
	return res, hit, nil
}

// Update routes the update through one node's full update pathway (home
// execution plus that node's own invalidation) and, once that node reports
// it confirmed, fans its invalidation out. invalidated is the fleet-wide
// count. A failed exec means the update was never confirmed, so no fan-out
// follows. No membership change stages between the exec and the fan-out.
func (r *Router) Update(ctx context.Context, su wire.SealedUpdate) (affected, invalidated int, seq uint64, err error) {
	start := r.now()
	r.migMu.RLock()
	defer r.migMu.RUnlock()
	exec := r.planner.ExecNode(su)
	b := r.backend(exec)
	if b == nil {
		r.proxyError(obs.KindUpdate)
		return 0, 0, 0, fmt.Errorf("shard: exec node %d has no live backend", exec)
	}
	esu := su
	sp := r.tracer.StartSpan(su.TraceID, su.ParentSpan, obs.StageRoute, obs.Tmpl(su.TemplateID)).
		WithNode(strconv.Itoa(exec))
	if id := sp.ID(); id != "" {
		esu.ParentSpan = id
	}
	nodeStart := r.now()
	affected, invalidated, seq, err = b.Update(ctx, esu)
	sp.End()
	r.observeNode(exec, obs.KindUpdate, nodeStart)
	if err != nil {
		r.proxyError(obs.KindUpdate)
		return 0, 0, 0, err
	}
	invalidated += r.fanOut(su, exec, seq)
	r.request(obs.KindUpdate, su.TemplateID, start)
	return affected, invalidated, seq, nil
}

// fanOut pushes one update, confirmed at home sequence seq through node
// exec, to every other planned node (exec's own pathway already
// invalidated), in parallel under the concurrency bound, and returns what
// those nodes dropped. A node that fails after retries is counted and
// skipped — the batch still reaches the surviving nodes. Backends are
// captured before the goroutines start, so a node leaving mid-batch still
// receives this batch's push (its pipeline outlives its membership by
// exactly the in-flight work).
func (r *Router) fanOut(su wire.SealedUpdate, exec int, seq uint64) int {
	targets, broadcast := r.planner.Targets(su)
	if broadcast && r.broadcasts != nil {
		r.broadcasts.Inc()
	}

	var total atomic.Int64
	touched := 1 // the exec node
	var wg sync.WaitGroup
	for _, ni := range targets {
		if ni == exec {
			continue
		}
		b := r.backend(ni)
		if b == nil {
			continue
		}
		touched++
		ni := ni
		wg.Add(1)
		r.sem <- struct{}{}
		go func() {
			defer func() { <-r.sem; wg.Done() }()
			fsu := su
			sp := r.tracer.StartSpan(fsu.TraceID, fsu.ParentSpan, obs.StageRoute, obs.Tmpl(fsu.TemplateID)).
				WithNode(strconv.Itoa(ni))
			if id := sp.ID(); id != "" {
				fsu.ParentSpan = id
			}
			start := r.now()
			inv, err := b.Invalidate(context.Background(), fsu, seq)
			sp.End()
			r.observeNode(ni, obs.KindInvalidate, start)
			if err != nil {
				r.proxyError(obs.KindInvalidate)
				return
			}
			total.Add(int64(inv))
		}()
	}
	wg.Wait()

	if r.fanoutNodes != nil {
		// Encoded like the batch-size histogram: an n-node fan-out is
		// recorded as n microseconds.
		r.fanoutNodes.Observe(time.Duration(touched) * time.Microsecond)
	}
	if skipped := r.planner.Nodes() - touched; skipped > 0 && r.fanoutSkipped != nil {
		r.fanoutSkipped.Add(int64(skipped))
	}
	return int(total.Load())
}

// MigrationReport summarizes one committed membership change.
type MigrationReport struct {
	Kind    string `json:"kind"` // "join", "leave", or "kill"
	Node    int    `json:"node"`
	Epoch   uint64 `json:"epoch"` // the epoch the fleet is on after the flip
	Warm    bool   `json:"warm"`  // sealed entries were streamed
	Moved   int    `json:"moved_templates"`
	Entries int    `json:"entries_migrated"`
	Members []int  `json:"members"`
}

// Join adds a node to the live ring and returns its assigned ID. With
// warm set, the moved template buckets' sealed entries stream from their
// current owners into the new node before the epoch flips: requests that
// resolved on the old epoch drain against the old owner (which keeps its
// copies until after the flip), invalidation fans out to both owners
// during the window, and the first post-flip query on a moved bucket is
// a hit. Without warm, the new node starts cold and re-earns every entry
// from the home tier. Updates in flight finish their fan-out before the
// rebalance stages, and new ones wait for the flip; queries never wait.
func (r *Router) Join(ctx context.Context, b Backend, warm bool) (*MigrationReport, error) {
	r.migMu.Lock()
	defer r.migMu.Unlock()
	members := r.planner.Members()
	node := r.nextNode // IDs are never reused, even after a leave
	r.nextNode++       // burned even if the join aborts: the ID may have seen fan-out
	plan, err := r.planner.StageRebalance(append(members, node))
	if err != nil {
		return nil, err
	}
	r.bmu.Lock()
	r.backends[node] = b
	r.bmu.Unlock()

	entries := 0
	byFrom := plan.MovesByFrom()
	if warm {
		entries, err = r.migrate(ctx, byFrom, r.backend, func(int) Backend { return b })
		if err != nil {
			r.planner.AbortRebalance()
			r.bmu.Lock()
			delete(r.backends, node)
			r.bmu.Unlock()
			return nil, fmt.Errorf("shard: warm handoff to joining node %d: %w", node, err)
		}
	}
	epoch := r.planner.CommitRebalance()
	if warm {
		r.dropMigrated(ctx, byFrom)
	}
	r.count(obs.MRouterMigrations, obs.L(obs.LKind, "join"))
	return r.report("join", node, epoch, warm, plan, entries), nil
}

// Leave refuses a node that is not a member, and the fleet's last node:
// the ring admin answers them 404 and 409, not as a node failure.
var (
	ErrNotMember = errors.New("not a member")
	ErrLastNode  = errors.New("cannot remove the last node")
)

// Leave removes a live node from the ring. With warm set, the departing
// node's buckets stream to their new owners before the flip — a graceful
// drain. Without warm — a kill — the node's entries are simply lost and
// its keys re-hash cold; use KindKill in reports to tell them apart.
func (r *Router) Leave(ctx context.Context, node int, warm bool) (*MigrationReport, error) {
	r.migMu.Lock()
	defer r.migMu.Unlock()
	members := r.planner.Members()
	rest := make([]int, 0, len(members))
	for _, m := range members {
		if m != node {
			rest = append(rest, m)
		}
	}
	if len(rest) == len(members) {
		return nil, fmt.Errorf("shard: node %d: %w", node, ErrNotMember)
	}
	if len(rest) == 0 {
		return nil, fmt.Errorf("shard: node %d: %w", node, ErrLastNode)
	}
	plan, err := r.planner.StageRebalance(rest)
	if err != nil {
		return nil, err
	}
	entries := 0
	if warm {
		// Every moved bucket comes from the departing node; group by the
		// receiving owner instead.
		entries, err = r.migrate(ctx, plan.MovesByTo(), func(int) Backend { return r.backend(node) }, r.backend)
		if err != nil {
			r.planner.AbortRebalance()
			return nil, fmt.Errorf("shard: warm drain of leaving node %d: %w", node, err)
		}
	}
	epoch := r.planner.CommitRebalance()
	r.bmu.Lock()
	delete(r.backends, node)
	r.bmu.Unlock()
	if r.blind != nil {
		r.blind.DropNode(node)
	}
	kind := "leave"
	if !warm {
		kind = "kill"
	}
	r.count(obs.MRouterMigrations, obs.L(obs.LKind, kind))
	return r.report(kind, node, epoch, warm, plan, entries), nil
}

// migrate streams bucket entries between nodes, one export/import per
// group key, in deterministic order. For a join the groups are the old
// owners (each exports its moved buckets to the fixed new node); for a
// leave they are the receiving owners (the fixed departing node exports
// each group to its survivor).
func (r *Router) migrate(ctx context.Context, groups map[int][]string, from, to func(int) Backend) (int, error) {
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	entries := 0
	for _, k := range keys {
		src, dst := from(k), to(k)
		if src == nil || dst == nil {
			continue
		}
		es, err := src.ExportBuckets(ctx, groups[k])
		if err != nil {
			return entries, err
		}
		if len(es) == 0 {
			continue
		}
		n, err := dst.ImportBuckets(ctx, es)
		if err != nil {
			return entries, err
		}
		entries += n
	}
	if entries > 0 && r.reg != nil {
		r.reg.Counter(obs.MRouterMigratedEntries).Add(int64(entries))
	}
	return entries, nil
}

// dropMigrated removes migrated buckets from their old owners after the
// flip. Failures are tolerated: a leftover copy only wastes space and
// keeps receiving fan-out until its entries age out.
func (r *Router) dropMigrated(ctx context.Context, byFrom map[int][]string) {
	keys := make([]int, 0, len(byFrom))
	for k := range byFrom {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if b := r.backend(k); b != nil {
			if _, err := b.DropBuckets(ctx, byFrom[k]); err != nil {
				r.proxyError(obs.KindInvalidate)
			}
		}
	}
}

func (r *Router) report(kind string, node int, epoch uint64, warm bool, plan *MovePlan, entries int) *MigrationReport {
	return &MigrationReport{
		Kind:    kind,
		Node:    node,
		Epoch:   epoch,
		Warm:    warm,
		Moved:   len(plan.Moves),
		Entries: entries,
		Members: r.planner.Members(),
	}
}
