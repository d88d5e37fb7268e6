// Package dssp assembles the Database Scalability Service Provider node of
// Figure 1/2: the untrusted cache of (possibly encrypted) query results,
// the mixed invalidation strategy dispatch, and the query/update pathways
// between clients and the application's home server.
//
// The node never holds encryption keys. Everything it learns comes from
// the exposure levels chosen by the application's administrator; the rest
// passes through as opaque ciphertext.
package dssp

import (
	"context"
	"sync"

	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/homeserver"
	"dssp/internal/invalidate"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// Node is one DSSP node serving a single application.
type Node struct {
	App   *template.App
	Cache *cache.Cache
}

// NewNode builds a DSSP node using the given static analysis (which
// determines template-inspection decisions).
func NewNode(app *template.App, analysis *core.Analysis, opts cache.Options) *Node {
	inv := invalidate.New(app, analysis)
	return &Node{App: app, Cache: cache.New(app, inv, opts)}
}

// HandleQuery serves a sealed query from the cache, reporting whether it
// was a hit.
func (n *Node) HandleQuery(q wire.SealedQuery) (wire.SealedResult, bool) {
	return n.Cache.Lookup(q)
}

// StoreResult caches a result fetched from the home server on a miss.
func (n *Node) StoreResult(q wire.SealedQuery, r wire.SealedResult, empty bool) {
	n.Cache.Store(q, r, empty)
}

// OnUpdateCompleted runs invalidation after the home server confirms an
// update, returning the number of cache entries invalidated.
func (n *Node) OnUpdateCompleted(u wire.SealedUpdate) int {
	return n.Cache.OnUpdate(u)
}

// OnUpdatesCompleted runs invalidation for one monitoring interval's
// batch of confirmed updates in a single amortized pass, returning
// per-update invalidation counts (identical, update for update, to
// sequential OnUpdateCompleted calls).
func (n *Node) OnUpdatesCompleted(us []wire.SealedUpdate) []int {
	return n.Cache.OnUpdateBatchCounts(us)
}

// Client is the trusted, application-side driver of the in-process
// deployment: it seals statements, routes them through the shared
// pipeline (direct transport to the home server), and opens results. The
// HTTP deployment and the discrete-event simulator route through the same
// pipeline with their own transports.
type Client struct {
	Codec *wire.Codec
	Node  *Node
	Home  *homeserver.Server

	// Tracer, when set, records per-stage spans (seal, cache_lookup,
	// network, invalidate, open) and the end-to-end request histogram for
	// every statement routed through the client. nil disables tracing.
	Tracer *obs.Tracer

	// Pipe is the client's query/update pathway. nil (the default) builds
	// it on first use: Node straight to Home, inline invalidation. A
	// deployment whose trusted tier is more than Home — replicas,
	// partitions (pipeline.NewTierTransport), a delayed hop — or whose
	// pipeline takes options sets its own over the same Node and Tracer,
	// before the first statement.
	Pipe *pipeline.Pipeline

	pipeOnce sync.Once
}

// NewClient assembles the in-process deployment of Figure 1 over a master
// database: one registry spanning node cache, client stage spans and
// home-server execution — what a scrape of every process would merge to —
// a node under the default analysis, and the home server.
func NewClient(app *template.App, codec *wire.Codec, db *storage.Database) *Client {
	reg := obs.NewRegistry()
	home := homeserver.New(db, app, codec)
	home.SetObs(reg, obs.WallClock())
	return &Client{
		Codec:  codec,
		Node:   NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{Obs: reg}),
		Home:   home,
		Tracer: obs.NewTracer(reg, obs.WallClock()),
	}
}

// pipeline returns the client's query/update pathway, building the
// default one on first use.
func (c *Client) pipeline() *pipeline.Pipeline {
	c.pipeOnce.Do(func() {
		if c.Pipe == nil {
			c.Pipe = pipeline.New(c.Node, pipeline.NewDirectTransport(c.Home), c.Tracer, pipeline.Options{})
		}
	})
	return c.Pipe
}

// QueryOutcome describes how a query was served.
type QueryOutcome struct {
	Hit     bool
	Rows    int
	Scanned int // base rows scanned at the home server (0 on a hit)
}

// Query executes one query template instance end to end.
func (c *Client) Query(t *template.Template, params ...interface{}) (*QueryResult, error) {
	vals, err := Params(params...)
	if err != nil {
		return nil, err
	}
	start := c.Tracer.Now()
	sq, err := c.Codec.SealQuery(t, vals)
	if err != nil {
		return nil, err
	}
	sq.ParentSpan = c.Tracer.ObserveSpan(obs.SpanRecord{
		Trace: sq.TraceID, Stage: obs.StageSeal, Template: t.ID,
		Start: start, Duration: c.Tracer.Now() - start,
	})
	reply, err := c.pipeline().QuerySync(context.Background(), sq)
	if err != nil {
		return nil, err
	}
	op := c.Tracer.Start(sq.TraceID, obs.StageOpen, t.ID)
	res, err := c.Codec.OpenResult(reply.Result)
	if err != nil {
		return nil, err
	}
	op.End()
	return &QueryResult{Result: res, Outcome: QueryOutcome{
		Hit:     reply.Hit,
		Rows:    res.Len(),
		Scanned: reply.Scanned,
	}}, nil
}

// Update executes one update template instance end to end: the update is
// routed (encrypted) via the DSSP to the home server, and the DSSP
// invalidates after completion (Figure 2).
func (c *Client) Update(t *template.Template, params ...interface{}) (affected, invalidated int, err error) {
	vals, err := Params(params...)
	if err != nil {
		return 0, 0, err
	}
	start := c.Tracer.Now()
	su, err := c.Codec.SealUpdate(t, vals)
	if err != nil {
		return 0, 0, err
	}
	su.ParentSpan = c.Tracer.ObserveSpan(obs.SpanRecord{
		Trace: su.TraceID, Stage: obs.StageSeal, Template: t.ID,
		Start: start, Duration: c.Tracer.Now() - start,
	})
	reply, err := c.pipeline().UpdateSync(context.Background(), su)
	if err != nil {
		return 0, 0, err
	}
	return reply.Affected, reply.Invalidated, nil
}
