// Package dssp assembles the Database Scalability Service Provider node of
// Figure 1/2: the untrusted cache of (possibly encrypted) query results,
// the mixed invalidation strategy dispatch, and the query/update pathways
// between clients and the application's home server.
//
// The node never holds encryption keys. Everything it learns comes from
// the exposure levels chosen by the application's administrator; the rest
// passes through as opaque ciphertext. Client is the other side of that
// boundary: the only code that seals a statement or opens a result.
package dssp

import (
	"context"
	"sync"
	"time"

	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/homeserver"
	"dssp/internal/invalidate"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/shard"
	"dssp/internal/sqlparse"
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

// Client is the trusted, application side of Figure 1, and the one place a
// statement is sealed and its result opened: the keys stay in Codec, and
// everything behind Front sees sealed messages only. httpapi.Client is this
// client over an HTTP hop, and the simulator's emulated clients seal and
// open through SealQuery, SealUpdate and Open on virtual time.
type Client struct {
	Codec *wire.Codec

	// Tracer, when set, records the seal span (every statement's trace
	// root) and the open span under the true template ID, which only this
	// side knows; the default Front records through it too. nil disables
	// tracing.
	Tracer *obs.Tracer

	// Front carries sealed statements to the untrusted tier. nil (the
	// default) builds on first use Node's pipeline straight to Home; any
	// other — a tier pipeline (pipeline.NewTierTransport), a router, an
	// HTTP hop — is set before the first statement.
	Front pipeline.Front

	// Node and Home are the in-process deployment the default Front joins.
	Node *Node
	Home *homeserver.Server

	frontOnce sync.Once
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

// front returns the client's Front, building the default one on first use.
func (c *Client) front() pipeline.Front {
	c.frontOnce.Do(func() {
		if c.Front == nil {
			c.Front = shard.PipeBackend{Pipe: pipeline.New(c.Node, pipeline.NewDirectTransport(c.Home), c.Tracer, pipeline.Options{})}
		}
	})
	return c.Front
}

// QueryOutcome describes how a query was served.
type QueryOutcome struct {
	Hit     bool
	Rows    int
	Scanned int // base rows scanned at the home server, as sealed into the result (0 on a hit)
}

// SealQuery seals one query instance and records its seal span, the root
// of the statement's trace: every downstream span nests under it through
// the sealed message's ParentSpan.
func (c *Client) SealQuery(t *template.Template, vals []sqlparse.Value) (wire.SealedQuery, error) {
	start := c.Tracer.Now()
	sq, err := c.Codec.SealQuery(t, vals)
	if err != nil {
		return sq, err
	}
	sq.ParentSpan = c.sealSpan(sq.TraceID, t, start)
	return sq, nil
}

// SealUpdate seals one update instance and records its seal span.
func (c *Client) SealUpdate(t *template.Template, vals []sqlparse.Value) (wire.SealedUpdate, error) {
	start := c.Tracer.Now()
	su, err := c.Codec.SealUpdate(t, vals)
	if err != nil {
		return su, err
	}
	su.ParentSpan = c.sealSpan(su.TraceID, t, start)
	return su, nil
}

// sealSpan records the seal span of a statement sealed since start and
// returns its ID.
func (c *Client) sealSpan(trace string, t *template.Template, start time.Duration) string {
	return c.Tracer.ObserveSpan(obs.SpanRecord{
		Trace: trace, Stage: obs.StageSeal, Template: t.ID,
		Start: start, Duration: c.Tracer.Now() - start,
	})
}

// Open opens the sealed result the untrusted tier returned for sq,
// recording the open span.
func (c *Client) Open(t *template.Template, sq wire.SealedQuery, sealed wire.SealedResult, hit bool) (*QueryResult, error) {
	op := c.Tracer.StartSpan(sq.TraceID, "", obs.StageOpen, t.ID)
	res, err := c.Codec.OpenResult(sealed)
	if err != nil {
		return nil, err
	}
	op.End()
	out := &QueryResult{Result: res, Outcome: QueryOutcome{Hit: hit, Rows: res.Len()}}
	if !hit {
		out.Outcome.Scanned = res.RowsScanned
	}
	return out, nil
}

// Query executes one query template instance end to end.
func (c *Client) Query(t *template.Template, params ...interface{}) (*QueryResult, error) {
	return c.QueryContext(context.Background(), t, params...)
}

// QueryContext is Query bounded by ctx.
func (c *Client) QueryContext(ctx context.Context, t *template.Template, params ...interface{}) (*QueryResult, error) {
	vals, err := Params(params...)
	if err != nil {
		return nil, err
	}
	sq, err := c.SealQuery(t, vals)
	if err != nil {
		return nil, err
	}
	sealed, hit, err := c.front().Query(ctx, sq)
	if err != nil {
		return nil, err
	}
	return c.Open(t, sq, sealed, hit)
}

// Update executes one update template instance end to end: the update is
// routed (encrypted) via the DSSP to the home server, and the DSSP
// invalidates after completion (Figure 2).
func (c *Client) Update(t *template.Template, params ...interface{}) (affected, invalidated int, err error) {
	return c.UpdateContext(context.Background(), t, params...)
}

// UpdateContext is Update bounded by ctx.
func (c *Client) UpdateContext(ctx context.Context, t *template.Template, params ...interface{}) (affected, invalidated int, err error) {
	vals, err := Params(params...)
	if err != nil {
		return 0, 0, err
	}
	su, err := c.SealUpdate(t, vals)
	if err != nil {
		return 0, 0, err
	}
	affected, invalidated, _, err = c.front().Update(ctx, su)
	return affected, invalidated, err
}
