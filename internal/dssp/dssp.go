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
	"errors"
	"sync"
	"time"

	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/engine"
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

// KeepResult is StoreResult that returns the result as the cache keeps
// it (pipeline.Keeper), for the miss to answer with.
func (n *Node) KeepResult(q wire.SealedQuery, r wire.SealedResult, empty bool) (wire.SealedResult, bool) {
	return n.Cache.Store(q, r, empty)
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
// client over a framed hop, and the simulator's emulated clients seal and
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
	// framed hop — is set before the first statement.
	Front pipeline.Front

	// Node and Home are the in-process deployment the default Front joins.
	Node *Node
	Home *homeserver.Server

	frontOnce sync.Once

	// scratch pools the *queryScratch each statement is sealed into.
	scratch sync.Pool
}

// queryScratch is what one statement is sealed into: its parameter values,
// and its payload and, for a query, its key (wire.Scratch). The sealed
// statement lends them to the front for the length of the call
// (pipeline.Front), and the client takes the scratch back when the call
// returns: only a keeper behind the front copies what it keeps
// (wire.SealedQuery.KeepIn, wire.SealedUpdate.KeepIn). A query's Replier
// lives here too, since every front replies within its call. release
// clears the values, which hold the caller's strings, as the engine's exec
// is cleared, and the replier, which holds the last answer, so an idle
// scratch pins nothing; the bytes it keeps grown hold no reference.
type queryScratch struct {
	vals []sqlparse.Value
	seal wire.Scratch
	open opener
}

// takeScratch returns a pooled scratch, or a new one.
func (c *Client) takeScratch() *queryScratch {
	if s, ok := c.scratch.Get().(*queryScratch); ok {
		return s
	}
	return new(queryScratch)
}

// release clears s and returns it to the pool.
func (c *Client) release(s *queryScratch) {
	clear(s.vals)
	s.vals = s.vals[:0]
	s.open = opener{}
	c.scratch.Put(s)
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
func (c *Client) sealSpan(trace obs.TraceID, t *template.Template, start time.Duration) obs.SpanID {
	return c.Tracer.ObserveSpan(obs.SpanRecord{
		Trace: trace, Stage: obs.StageSeal, Template: t.ID,
		Start: start, Duration: c.Tracer.Now() - start,
	})
}

// Open opens the sealed result the untrusted tier returned for sq,
// recording the open span, as a query's replier does: the QueryResult, its
// result, and the result's values and strings are one allocation when the
// result fits an answer box.
func (c *Client) Open(t *template.Template, sq wire.SealedQuery, sealed wire.SealedResult, hit bool) (*QueryResult, error) {
	s := c.takeScratch()
	defer c.release(s)
	o := s.opener(c, t, sq)
	o.Reply(sealed, hit)
	return o.result()
}

// opener readies the Replier in s that opens the answer to sq, and
// returns it.
func (s *queryScratch) opener(c *Client, t *template.Template, sq wire.SealedQuery) *opener {
	s.open = opener{c: c, t: t, trace: sq.TraceID, err: errNoReply}
	return &s.open
}

// errNoReply is a front that answered a query without a result.
var errNoReply = errors.New("dssp: the front answered the query without a result")

// opener is the pipeline.Replier that opens a front's answer while it is
// still lent — straight from the frame it arrived in, over a hop — into an
// answer box it chooses once the answer is measured (Box): it is the
// wire.ResultBox of its open. It lives in the query's pooled scratch, and
// what it keeps of an answer is the box, which the query returns.
type opener struct {
	c     *Client
	t     *template.Template
	trace obs.TraceID
	out   *QueryResult // the box's, once Box ran
	err   error        // the open's, or errNoReply until Reply runs
}

// box is a QueryResult and the result it points to. What a query
// allocates is one answer box: a box with its result's values and string
// bytes beside it, of the smallest class they fit, or, for an answer that
// fits none, a box alone, its values and bytes each in an array of their
// own. The classes are sized to the answers the applications' scripts
// return most — most have up to six values and 32 bytes of strings — so a
// small answer pins no more memory than it needs.
type box struct {
	QueryResult
	res engine.Result
}

// The answer box classes, named by the values they hold.
type (
	box2 struct {
		box
		vals [2]sqlparse.Value
		strs [16]byte
	}
	box6 struct {
		box
		vals [6]sqlparse.Value
		strs [32]byte
	}
)

// Box allocates the answer box of a result of n values and m string
// bytes (wire.ResultBox).
func (o *opener) Box(n, m int) (*engine.Result, []sqlparse.Value, []byte) {
	var a *box
	var vals []sqlparse.Value
	var strs []byte
	switch {
	case n <= len(box2{}.vals) && m <= len(box2{}.strs):
		b := new(box2)
		a, vals, strs = &b.box, b.vals[:n], b.strs[:m]
	case n <= len(box6{}.vals) && m <= len(box6{}.strs):
		b := new(box6)
		a, vals, strs = &b.box, b.vals[:n], b.strs[:m]
	default:
		a, vals, strs = new(box), make([]sqlparse.Value, n), make([]byte, m)
	}
	a.Result = &a.res
	o.out = &a.QueryResult
	return &a.res, vals, strs
}

// Reply opens the sealed result and records the open span.
func (o *opener) Reply(sealed wire.SealedResult, hit bool) {
	op := o.c.Tracer.StartSpan(o.trace, obs.SpanID{}, obs.StageOpen, o.t.ID)
	if o.err = o.c.Codec.OpenResultInto(o.t, sealed, o); o.err != nil {
		return
	}
	op.End()
	res := o.out.Result
	o.out.Outcome = QueryOutcome{Hit: hit, Rows: res.Len()}
	if !hit {
		o.out.Outcome.Scanned = res.RowsScanned
	}
}

// result is what the query returns once the front answered.
func (o *opener) result() (*QueryResult, error) {
	if o.err != nil {
		return nil, o.err
	}
	return o.out, nil
}

// Query executes one query template instance end to end.
func (c *Client) Query(t *template.Template, params ...interface{}) (*QueryResult, error) {
	return c.QueryContext(context.Background(), t, params...)
}

// QueryContext is Query bounded by ctx. The query is sealed into pooled
// scratch and lent to the front for the call, and the front replies to
// the scratch's opener, so a hit allocates only the answer box it returns.
func (c *Client) QueryContext(ctx context.Context, t *template.Template, params ...interface{}) (*QueryResult, error) {
	s := c.takeScratch()
	defer c.release(s)
	var err error
	if s.vals, err = appendParams(s.vals[:0], params); err != nil {
		return nil, err
	}
	start := c.Tracer.Now()
	sq, err := c.Codec.LendQuery(t, s.vals, &s.seal)
	if err != nil {
		return nil, err
	}
	sq.ParentSpan = c.sealSpan(sq.TraceID, t, start)
	out := s.opener(c, t, sq)
	if err := c.front().Query(ctx, sq, out); err != nil {
		return nil, err
	}
	return out.result()
}

// Update executes one update template instance end to end: the update is
// routed (encrypted) via the DSSP to the home server, and the DSSP
// invalidates after completion (Figure 2).
func (c *Client) Update(t *template.Template, params ...interface{}) (affected, invalidated int, err error) {
	return c.UpdateContext(context.Background(), t, params...)
}

// UpdateContext is Update bounded by ctx. The update is sealed into pooled
// scratch and lent to the front for the call, as a query is, so a warm
// update allocates nothing here: the front's one keeper of an update, the
// pipeline's update call, copies it (pipeline.Front).
func (c *Client) UpdateContext(ctx context.Context, t *template.Template, params ...interface{}) (affected, invalidated int, err error) {
	s := c.takeScratch()
	defer c.release(s)
	if s.vals, err = appendParams(s.vals[:0], params); err != nil {
		return 0, 0, err
	}
	start := c.Tracer.Now()
	su, err := c.Codec.LendUpdate(t, s.vals, &s.seal)
	if err != nil {
		return 0, 0, err
	}
	su.ParentSpan = c.sealSpan(su.TraceID, t, start)
	affected, invalidated, _, err = c.front().Update(ctx, su)
	return affected, invalidated, err
}
