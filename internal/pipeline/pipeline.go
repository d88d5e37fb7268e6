// Package pipeline implements the paper's Figure 1/2 pathway exactly once:
// cache lookup → miss → sealed forward to the home server → store → open,
// and update forward → invalidate on completion. Every deployment mode of
// the reproduction — the in-process client, the HTTP node, and the
// discrete-event simulator — is a thin adapter over this package, so
// cross-cutting scale features (single-flight miss coalescing here;
// sharding and batching later) land in one place and are provably
// identical in all three.
//
// The pipeline is written in continuation-passing style: Query and Update
// take a completion callback instead of returning, because the simulator's
// transport resolves on virtual-time events, not on the caller's stack.
// Synchronous transports (direct in-process calls, framed round trips)
// invoke the callback before returning; QuerySync and UpdateSync wrap the
// callback form for callers that want a plain blocking call. Each miss and
// each update runs as one pooled call object (call.go), so the stages'
// hand-offs allocate nothing.
//
// On the miss path the pipeline coalesces concurrent misses for the same
// sealed cache key into a single home-server execution (single-flight).
// The key is the wire-level lookup key, which is deterministic at every
// exposure level — so coalescing works for blind traffic the DSSP cannot
// read, and never crosses applications, whose keyrings make their keys
// disjoint by construction.
package pipeline

import (
	"context"
	"sync"
	"time"

	"dssp/internal/obs"
	"dssp/internal/wire"
)

// Cache is the DSSP node surface the pipeline drives: the cache lookup and
// store halves of the query path, and invalidation monitoring for the
// update path — one update at a time, or a whole monitoring interval's
// batch at once. *dssp.Node implements it.
type Cache interface {
	HandleQuery(q wire.SealedQuery) (wire.SealedResult, bool)
	StoreResult(q wire.SealedQuery, r wire.SealedResult, empty bool)
	OnUpdateCompleted(u wire.SealedUpdate) int

	// OnUpdatesCompleted applies one monitoring interval's batch of
	// completed updates in order and returns per-update invalidation
	// counts — element i is what OnUpdateCompleted(us[i]) would have
	// returned sequentially.
	OnUpdatesCompleted(us []wire.SealedUpdate) []int
}

// ExecQueryResult is the home server's answer to a forwarded query: the
// sealed result, the trusted side's emptiness hint (for the no-empty-
// results caching policy), and the base rows scanned (the simulator's cost
// model input).
type ExecQueryResult struct {
	Result  wire.SealedResult
	Empty   bool
	Scanned int

	// Applied is the serving backend's applied-update sequence at the
	// time it answered, when the backend is a home read replica; 0 from
	// the primary (definitionally current) and from caching tiers. The
	// replica set uses it to track each replica's freshness.
	Applied uint64
}

// ExecUpdateResult is the home server's answer to a forwarded update: rows
// affected at the master database, and the update's sequence number in the
// master's serialization order (0 when the backend predates sequencing,
// e.g. a fake transport in tests). Replicas replay confirmed updates in
// sequence order; a node that has seen Seq confirmed must not serve misses
// from a replica that hasn't applied it yet.
type ExecUpdateResult struct {
	Affected int
	Seq      uint64
}

// Transport carries sealed wire messages from the node to the home server
// and resolves done with the answer. Implementations may resolve
// synchronously (in-process call, framed round trip) or from a later event
// (the simulator's virtual-time links); the pipeline works identically
// either way. done must be called exactly once.
type Transport interface {
	ExecQuery(ctx context.Context, sq wire.SealedQuery, done func(ExecQueryResult, error))
	ExecUpdate(ctx context.Context, su wire.SealedUpdate, done func(ExecUpdateResult, error))
}

// Front is the sealed seam between the trusted client and the untrusted
// tier: whatever answers a sealed query with a sealed result and carries a
// sealed update to its confirmation. One node's pipeline is a Front (as a
// shard.PipeBackend), so is a shard router, and so is a framed hop to
// either (httpapi.NodeProxy). Nothing behind a Front holds a key: the
// client seals before Query or Update and opens after.
//
// Query lends in both directions. sq may be lent — a node serving a frame
// passes the query read in place (wire.Raw.Query), whose Opaque lies in
// the frame — so a Front reads the payload only before Query returns, and
// whatever keeps the statement past that drops or copies it (a cache
// entry drops it). The answer is lent back: Query hands it to r.Reply,
// once and only on success, and res is valid only during that call — a
// hop hands over the result as it lies in the answer frame, so the
// trusted client opens it there, and a node appends it to its own answer
// frame. An error means Reply was not called.
type Front interface {
	Query(ctx context.Context, sq wire.SealedQuery, r Replier) error
	Update(ctx context.Context, su wire.SealedUpdate) (affected, invalidated int, seq uint64, err error)
}

// Replier takes a Front's answer to a query. res is valid only during
// Reply: a Replier that keeps the result copies it (wire.SealedResult.Own)
// or opens it.
type Replier interface {
	Reply(res wire.SealedResult, hit bool)
}

// QueryReply describes how the pipeline served one sealed query.
type QueryReply struct {
	Result wire.SealedResult
	Hit    bool

	// Coalesced reports that this miss shared another miss's in-flight
	// home-server execution instead of issuing its own.
	Coalesced bool

	// Scanned is the base rows scanned at the home server (0 on a hit or
	// a coalesced miss).
	Scanned int
}

// UpdateReply describes one completed update: rows affected at the home
// server, the update's confirmed sequence number there, and cache entries
// invalidated at this node.
type UpdateReply struct {
	Affected    int
	Invalidated int
	Seq         uint64
}

// Options configures a pipeline.
type Options struct {
	// MonitorInterval batches invalidation per the paper's §2.2
	// monitoring model: confirmed updates accumulate in the pipeline's
	// batcher and are applied together — via Cache.OnUpdatesCompleted,
	// one amortized bucket walk per batch — when the interval expires.
	// The first update of an idle period arms the flush timer. An
	// update's completion callback fires at the flush with its exact
	// per-update invalidation count, so callers see at most one interval
	// of added latency (the monitoring staleness/throughput tradeoff).
	// 0 (the default) invalidates inline per update, exactly the
	// pre-batching behaviour.
	MonitorInterval time.Duration

	// After schedules fn after d for the batcher's flush timer. nil uses
	// time.AfterFunc; the simulator passes its virtual-time scheduler so
	// the interval elapses on the simulated clock.
	After func(d time.Duration, fn func())

	// Fresh is the node's freshness floor — the vector NewTierTransport
	// returned with the transport, whose replica sets share it: every
	// confirmed update the node learns of — its own updates' responses
	// and invalidation fan-out from elsewhere — raises the floor, and no
	// miss may be served by a replica that hasn't applied up to it. nil
	// (the default, single-home deployments) disables floor tracking.
	Fresh *Freshness
}

// Pipeline is the shared query/update pathway of one DSSP node.
type Pipeline struct {
	cache     Cache
	transport Transport
	tracer    *obs.Tracer
	reg       *obs.Registry
	opts      Options

	// coalesced counts misses that joined an existing flight. Registered
	// eagerly so every deployment exposes the same metric shape.
	coalesced *obs.Counter

	mu      sync.Mutex
	flights map[string]*missCall // each sealed key's leading miss (call.go)

	// missPool and updatePool recycle the calls of call.go.
	missPool, updatePool sync.Pool

	// hists caches the end-to-end request-histogram handles per
	// (kind, template).
	hists obs.HandleCache[histKey, *obs.Histogram]

	// batcher accumulates confirmed updates per monitoring interval; nil
	// when Options.MonitorInterval is 0 (inline invalidation).
	batcher *batcher
}

// New builds a pipeline over a node cache and a transport. tracer supplies
// the clock and registry for the node-side stage spans (cache_lookup,
// network, invalidate) and the end-to-end request histogram; nil disables
// instrumentation.
func New(cache Cache, transport Transport, tracer *obs.Tracer, opts Options) *Pipeline {
	p := &Pipeline{
		cache:     cache,
		transport: transport,
		tracer:    tracer,
		reg:       tracer.Registry(),
		opts:      opts,
		flights:   make(map[string]*missCall),
	}
	p.missPool.New = p.newMissCall
	p.updatePool.New = p.newUpdateCall
	if p.reg != nil {
		p.coalesced = p.reg.Counter(obs.MCoalescedMisses)
	}
	if opts.MonitorInterval > 0 {
		p.batcher = newBatcher(p, opts)
	}
	return p
}

// histKey identifies one request histogram's label set.
type histKey struct{ kind, tmpl string }

// request records the end-to-end request histogram sample.
func (p *Pipeline) request(kind, tmpl string, start time.Duration) {
	if p.reg == nil {
		return
	}
	p.hists.Get(histKey{kind, tmpl}, func() *obs.Histogram {
		return p.reg.Histogram(obs.MRequestSeconds, obs.L(obs.LKind, kind), obs.L(obs.LTemplate, tmpl))
	}).Observe(p.tracer.Now() - start)
}

// Query serves one sealed query: from the cache on a hit, through the
// transport (single-flight per sealed key) on a miss. done is called
// exactly once, possibly before Query returns (synchronous transports,
// cache hits) and possibly on another goroutine (coalesced misses resolved
// by the flight leader).
func (p *Pipeline) Query(ctx context.Context, sq wire.SealedQuery, done func(QueryReply, error)) {
	start := p.tracer.Now()
	if reply, hit := p.lookup(sq, start); hit {
		done(reply, nil)
		return
	}
	p.fetch(ctx, p.takeMiss(sq, start, done))
}

// lookup is the first stage of a query, the whole of it on a hit: it needs
// no continuation, so QuerySync answers a hit without taking a call.
func (p *Pipeline) lookup(sq wire.SealedQuery, start time.Duration) (QueryReply, bool) {
	tmpl := obs.Tmpl(sq.TemplateID)
	lk := p.tracer.StartSpan(sq.TraceID, sq.ParentSpan, obs.StageLookup, tmpl)
	res, hit := p.cache.HandleQuery(sq)
	lk.End()
	if !hit {
		return QueryReply{}, false
	}
	p.request(obs.KindQuery, tmpl, start)
	return QueryReply{Result: res, Hit: true}, true
}

// fetch is the rest of a query that missed: join the flight already
// fetching this key, or lead one through the transport, the call itself
// being the flight.
func (p *Pipeline) fetch(ctx context.Context, c *missCall) {
	p.mu.Lock()
	if f, ok := p.flights[c.sq.Key]; ok {
		// Join the in-flight fetch; the leader resolves us. The wait
		// is a real pipeline stage — the whole point of coalescing is
		// that this span replaces a home round trip. The closure is
		// the one allocation left on the miss path, and only a miss
		// that overlaps another of the same key makes it.
		cw := p.tracer.StartSpan(c.sq.TraceID, c.sq.ParentSpan, obs.StageCoalesceWait, c.tmpl)
		f.waiters = append(f.waiters, func(r QueryReply, err error) {
			cw.End()
			if err == nil {
				p.request(obs.KindQuery, c.tmpl, c.start)
			}
			c.done(r, err)
			c.release()
		})
		p.mu.Unlock()
		if p.coalesced != nil {
			p.coalesced.Inc()
		}
		return
	}
	p.flights[c.sq.Key] = c
	p.mu.Unlock()

	c.net = p.tracer.StartSpan(c.sq.TraceID, c.sq.ParentSpan, obs.StageNetwork, c.tmpl)
	if id := c.net.ID(); !id.IsZero() {
		c.sq.ParentSpan = id // downstream hops (transport, home) nest under the network span
	}
	p.transport.ExecQuery(ctx, c.sq, c.resolveFn)
}

// Update routes one sealed update through the transport and, after the
// home server confirms it, runs invalidation at this node (Figure 2) —
// inline, or at the next monitoring-interval flush when batching is
// configured. done is called exactly once, with the update's exact
// invalidation count either way.
func (p *Pipeline) Update(ctx context.Context, su wire.SealedUpdate, done func(UpdateReply, error)) {
	p.forward(ctx, p.takeUpdate(su, done))
}

// forward sends an update's call to the home server; confirmed takes it
// from there.
func (p *Pipeline) forward(ctx context.Context, c *updateCall) {
	c.tmpl, c.start, c.forward = obs.Tmpl(c.su.TemplateID), p.tracer.Now(), true
	c.net = p.tracer.StartSpan(c.su.TraceID, c.su.ParentSpan, obs.StageNetwork, c.tmpl)
	if id := c.net.ID(); !id.IsZero() {
		c.su.ParentSpan = id
	}
	p.transport.ExecUpdate(ctx, c.su, c.confirmedFn)
}

// QuerySync is the blocking form of Query. It returns early with ctx's
// error if the context ends first (the underlying fetch still completes and
// populates the cache for later queries).
func (p *Pipeline) QuerySync(ctx context.Context, sq wire.SealedQuery) (QueryReply, error) {
	start := p.tracer.Now()
	if reply, hit := p.lookup(sq, start); hit {
		return reply, nil
	}
	c := p.takeMiss(sq, start, nil)
	p.fetch(ctx, c)
	reply, err := c.sc.wait(ctx)
	c.release()
	return reply, err
}

// UpdateSync is the blocking form of Update.
func (p *Pipeline) UpdateSync(ctx context.Context, su wire.SealedUpdate) (UpdateReply, error) {
	c := p.takeUpdate(su, nil)
	p.forward(ctx, c)
	reply, err := c.sc.wait(ctx)
	c.release()
	return reply, err
}

// MonitorSync is the blocking form of MonitorUpdate: it feeds an update
// confirmed elsewhere (at home sequence seq) into this node's
// invalidation monitor and returns its count — at the next flush when
// the node batches per monitoring interval, at once otherwise — or ctx's
// error if the context ends first.
func (p *Pipeline) MonitorSync(ctx context.Context, su wire.SealedUpdate, seq uint64) (int, error) {
	c := p.takeUpdate(su, nil)
	p.MonitorUpdate(su, seq, c.invalidatedFn)
	reply, err := c.sc.wait(ctx)
	c.release()
	return reply.Invalidated, err
}
