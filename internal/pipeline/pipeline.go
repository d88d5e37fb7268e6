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
// Synchronous transports (direct in-process calls, HTTP round trips)
// invoke the callback before returning; QuerySync and UpdateSync wrap the
// callback form for callers that want a plain blocking call.
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
	"sync/atomic"
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
// synchronously (in-process call, HTTP round trip) or from a later event
// (the simulator's virtual-time links); the pipeline works identically
// either way. done must be called exactly once.
type Transport interface {
	ExecQuery(ctx context.Context, sq wire.SealedQuery, done func(ExecQueryResult, error))
	ExecUpdate(ctx context.Context, su wire.SealedUpdate, done func(ExecUpdateResult, error))
}

// Front is the sealed seam between the trusted client and the untrusted
// tier: whatever answers a sealed query with a sealed result and carries a
// sealed update to its confirmation. One node's pipeline is a Front (as a
// shard.PipeBackend), so is a shard router, and so is an HTTP hop to
// either (httpapi.NodeProxy). Nothing behind a Front holds a key: the
// client seals before Query or Update and opens after.
type Front interface {
	Query(ctx context.Context, sq wire.SealedQuery) (res wire.SealedResult, hit bool, err error)
	Update(ctx context.Context, su wire.SealedUpdate) (affected, invalidated int, seq uint64, err error)
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
	// DisableCoalescing turns off single-flight miss coalescing, so every
	// concurrent miss issues its own home-server execution — the
	// pre-pipeline behaviour, kept for the coalescing benchmark's
	// baseline.
	DisableCoalescing bool

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

	// Leakage, when set, is the adversary's-eye audit at this node's
	// trust boundary: it sees exactly the sealed traffic the pipeline
	// sees, never plaintext the exposure level hides. nil disables the
	// audit (the production default — it is a measurement instrument).
	Leakage LeakageObserver

	// Fresh is the node's freshness floor — the vector NewTierTransport
	// returned with the transport, whose replica sets share it: every
	// confirmed update the node learns of — its own updates' responses
	// and invalidation fan-out from elsewhere — raises the floor, and no
	// miss may be served by a replica that hasn't applied up to it. nil
	// (the default, single-home deployments) disables floor tracking.
	Fresh *Freshness
}

// LeakageObserver records what an untrusted observer at this pipeline's
// vantage point, a DSSP node, learns from the sealed traffic passing
// through. Implemented by leakage.Observer.
type LeakageObserver interface {
	// ObserveQuery sees every sealed query arriving at the vantage point
	// and whether the cache answered it (access-pattern leakage).
	ObserveQuery(sq wire.SealedQuery, hit bool)

	// ObserveResult sees every sealed result transiting the vantage
	// point: a hit served from the cache, or a miss returning from home.
	ObserveResult(sq wire.SealedQuery, res wire.SealedResult)

	// ObserveUpdate sees every sealed update routed through the vantage
	// point.
	ObserveUpdate(su wire.SealedUpdate)

	// ObserveInvalidation sees each completed update's invalidation
	// applied at this vantage point, with the entry count it dropped
	// (update→invalidation correlation leakage).
	ObserveInvalidation(su wire.SealedUpdate, invalidated int)
}

// flight is one in-progress home-server fetch that concurrent misses on
// the same sealed key attach to.
type flight struct {
	waiters []func(QueryReply, error)
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
	flights map[string]*flight

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
		flights:   make(map[string]*flight),
	}
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
	p.fetch(ctx, sq, start, done)
}

// lookup is the first stage of a query, the whole of it on a hit: it needs
// no continuation, so QuerySync answers a hit without making one.
func (p *Pipeline) lookup(sq wire.SealedQuery, start time.Duration) (QueryReply, bool) {
	tmpl := obs.Tmpl(sq.TemplateID)
	lk := p.tracer.StartSpan(sq.TraceID, sq.ParentSpan, obs.StageLookup, tmpl)
	res, hit := p.cache.HandleQuery(sq)
	lk.End()
	if p.opts.Leakage != nil {
		p.opts.Leakage.ObserveQuery(sq, hit)
	}
	if !hit {
		return QueryReply{}, false
	}
	if p.opts.Leakage != nil {
		p.opts.Leakage.ObserveResult(sq, res)
	}
	p.request(obs.KindQuery, tmpl, start)
	return QueryReply{Result: res, Hit: true}, true
}

// fetch is the rest of a query that missed: join the flight already
// fetching this key, or lead one through the transport.
func (p *Pipeline) fetch(ctx context.Context, sq wire.SealedQuery, start time.Duration, done func(QueryReply, error)) {
	tmpl := obs.Tmpl(sq.TemplateID)
	if !p.opts.DisableCoalescing {
		p.mu.Lock()
		if f, ok := p.flights[sq.Key]; ok {
			// Join the in-flight fetch; the leader resolves us. The wait
			// is a real pipeline stage — the whole point of coalescing is
			// that this span replaces a home round trip.
			cw := p.tracer.StartSpan(sq.TraceID, sq.ParentSpan, obs.StageCoalesceWait, tmpl)
			f.waiters = append(f.waiters, func(r QueryReply, err error) {
				cw.End()
				if err == nil {
					p.request(obs.KindQuery, tmpl, start)
				}
				done(r, err)
			})
			p.mu.Unlock()
			if p.coalesced != nil {
				p.coalesced.Inc()
			}
			return
		}
		p.flights[sq.Key] = &flight{}
		p.mu.Unlock()
	}

	net := p.tracer.StartSpan(sq.TraceID, sq.ParentSpan, obs.StageNetwork, tmpl)
	if id := net.ID(); id != "" {
		sq.ParentSpan = id // downstream hops (transport, home) nest under the network span
	}
	p.transport.ExecQuery(ctx, sq, func(er ExecQueryResult, err error) {
		net.End()
		if err == nil {
			p.cache.StoreResult(sq, er.Result, er.Empty)
			if p.opts.Leakage != nil {
				p.opts.Leakage.ObserveResult(sq, er.Result)
			}
		}

		var waiters []func(QueryReply, error)
		if !p.opts.DisableCoalescing {
			p.mu.Lock()
			if f := p.flights[sq.Key]; f != nil {
				waiters = f.waiters
				delete(p.flights, sq.Key)
			}
			p.mu.Unlock()
		}

		if err != nil {
			done(QueryReply{}, err)
			for _, w := range waiters {
				w(QueryReply{}, err)
			}
			return
		}
		p.request(obs.KindQuery, tmpl, start)
		done(QueryReply{Result: er.Result, Scanned: er.Scanned}, nil)
		for _, w := range waiters {
			w(QueryReply{Result: er.Result, Coalesced: true}, nil)
		}
	})
}

// Update routes one sealed update through the transport and, after the
// home server confirms it, runs invalidation at this node (Figure 2) —
// inline, or at the next monitoring-interval flush when batching is
// configured. done is called exactly once, with the update's exact
// invalidation count either way.
func (p *Pipeline) Update(ctx context.Context, su wire.SealedUpdate, done func(UpdateReply, error)) {
	tmpl := obs.Tmpl(su.TemplateID)
	start := p.tracer.Now()
	if p.opts.Leakage != nil {
		p.opts.Leakage.ObserveUpdate(su)
	}
	net := p.tracer.StartSpan(su.TraceID, su.ParentSpan, obs.StageNetwork, tmpl)
	if id := net.ID(); id != "" {
		su.ParentSpan = id
	}
	p.transport.ExecUpdate(ctx, su, func(ur ExecUpdateResult, err error) {
		net.End()
		if err != nil {
			done(UpdateReply{}, err)
			return
		}
		p.MonitorUpdate(su, ur.Seq, func(invalidated int) {
			p.request(obs.KindUpdate, tmpl, start)
			done(UpdateReply{Affected: ur.Affected, Invalidated: invalidated, Seq: ur.Seq}, nil)
		})
	})
}

// QuerySync is the blocking form of Query. It returns early with ctx's
// error if the context ends first (the underlying fetch still completes and
// populates the cache for later queries).
func (p *Pipeline) QuerySync(ctx context.Context, sq wire.SealedQuery) (QueryReply, error) {
	start := p.tracer.Now()
	if reply, hit := p.lookup(sq, start); hit {
		return reply, nil
	}
	var c syncCall[QueryReply]
	p.fetch(ctx, sq, start, c.done)
	return c.wait(ctx)
}

// UpdateSync is the blocking form of Update.
func (p *Pipeline) UpdateSync(ctx context.Context, su wire.SealedUpdate) (UpdateReply, error) {
	var c syncCall[UpdateReply]
	p.Update(ctx, su, c.done)
	return c.wait(ctx)
}

// syncCall carries the outcome of one Query or Update from its continuation
// to the caller blocked in the Sync form. A transport that resolves before
// it returns has run the continuation by the time the caller looks: it then
// reads the outcome and is gone, and only a caller that finds the call still
// pending makes a channel to wait on.
type syncCall[R any] struct {
	reply R
	err   error
	state atomic.Int32  // callPending, then callDone or callWaiting, whichever side moves first
	ch    chan struct{} // set before state becomes callWaiting; closed by done
}

const (
	callPending int32 = iota
	callDone          // the continuation ran first: reply and err are set
	callWaiting       // the caller got there first and waits on ch
)

func (c *syncCall[R]) done(reply R, err error) {
	c.reply, c.err = reply, err
	if !c.state.CompareAndSwap(callPending, callDone) {
		close(c.ch)
	}
}

func (c *syncCall[R]) wait(ctx context.Context) (R, error) {
	if c.state.Load() != callDone {
		c.ch = make(chan struct{})
		if c.state.CompareAndSwap(callPending, callWaiting) {
			select {
			case <-c.ch:
			case <-ctx.Done():
				// done may still run, and write reply: do not read it.
				var none R
				return none, ctx.Err()
			}
		}
	}
	return c.reply, c.err
}
