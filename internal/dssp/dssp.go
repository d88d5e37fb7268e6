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
// client over a framed hop.
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

	// scratch pools the *Statement each statement is sealed into.
	scratch sync.Pool
}

// Statement is one statement of the client's in flight: its parameter
// values, its payload and, for a query, its key (wire.Scratch), sealed into
// pooled scratch and lent from there to the untrusted tier, and the
// pipeline.Replier that opens a query's answer. The client holds it until
// a query's answer is opened or an update's reply is back, however much
// later, then takes it back (Release): whatever keeps the statement past
// the call it is lent to copies it (pipeline.Front). QueryContext and
// UpdateContext hold it for their front's call, and the simulator's
// emulated clients from StartQuery or StartUpdate to their delayed reply.
type Statement struct {
	c    *Client
	vals []sqlparse.Value
	seal wire.Scratch

	// A query's open (Reply): its template and trace, and what it
	// answers: the answer box, or an error, errNoReply until Reply runs.
	t     *template.Template
	trace obs.TraceID
	out   *QueryResult
	err   error
}

// statement returns a pooled statement, or a new one.
func (c *Client) statement() *Statement {
	if s, ok := c.scratch.Get().(*Statement); ok {
		return s
	}
	return &Statement{c: c}
}

// Release gives s back to its client. It clears the values, which hold
// the caller's strings, as the engine's exec is cleared, and the answer,
// so an idle statement pins nothing; the bytes it keeps grown hold no
// reference.
func (s *Statement) Release() {
	clear(s.vals)
	s.vals = s.vals[:0]
	s.t, s.out, s.err = nil, nil, nil
	s.c.scratch.Put(s)
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

// sealSpan records the seal span of a statement sealed since start and
// returns its ID.
func (c *Client) sealSpan(trace obs.TraceID, t *template.Template, start time.Duration) obs.SpanID {
	return c.Tracer.ObserveSpan(obs.SpanRecord{
		Trace: trace, Stage: obs.StageSeal, Template: t.ID,
		Start: start, Duration: c.Tracer.Now() - start,
	})
}

// errNoReply is a front that answered a query without a result.
var errNoReply = errors.New("dssp: the front answered the query without a result")

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
// bytes, once the answer is measured (wire.ResultBox).
func (s *Statement) Box(n, m int) (*engine.Result, []sqlparse.Value, []byte) {
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
	s.out = &a.QueryResult
	return &a.res, vals, strs
}

// Reply opens the sealed result and records the open span
// (pipeline.Replier).
func (s *Statement) Reply(sealed wire.SealedResult, hit bool) {
	op := s.c.Tracer.StartSpan(s.trace, obs.SpanID{}, obs.StageOpen, s.t.ID)
	if s.err = s.c.Codec.OpenResultInto(s.t, sealed, s); s.err != nil {
		s.out = nil
		return
	}
	op.End()
	res := s.out.Result
	s.out.Outcome = QueryOutcome{Hit: hit, Rows: res.Len()}
	if !hit {
		s.out.Outcome.Scanned = res.RowsScanned
	}
}

// Open opens the answer to the query s holds, as its front's Reply would,
// and gives s back: the end of a query StartQuery began.
func (s *Statement) Open(sealed wire.SealedResult, hit bool) (*QueryResult, error) {
	defer s.Release()
	s.Reply(sealed, hit)
	return s.out, s.err
}

// lendQuery seals a query of t over s.vals into s, records its seal span,
// the root of the statement's trace — every downstream span nests under
// it through the sealed message's ParentSpan — and readies s to open its
// answer.
func (s *Statement) lendQuery(t *template.Template) (wire.SealedQuery, error) {
	start := s.c.Tracer.Now()
	sq, err := s.c.Codec.LendQuery(t, s.vals, &s.seal)
	if err == nil {
		sq.ParentSpan = s.c.sealSpan(sq.TraceID, t, start)
		s.t, s.trace, s.err = t, sq.TraceID, errNoReply
	}
	return sq, err
}

// lendUpdate seals an update of t over s.vals into s and records its seal
// span.
func (s *Statement) lendUpdate(t *template.Template) (wire.SealedUpdate, error) {
	start := s.c.Tracer.Now()
	su, err := s.c.Codec.LendUpdate(t, s.vals, &s.seal)
	if err == nil {
		su.ParentSpan = s.c.sealSpan(su.TraceID, t, start)
	}
	return su, err
}

// StartQuery seals a query of t over vals into a pooled statement, for a
// caller that sends it itself and is answered later: the query is lent
// from the statement until Open. The caller gives the statement back
// (Release) if StartQuery fails.
func (c *Client) StartQuery(t *template.Template, vals []sqlparse.Value) (*Statement, wire.SealedQuery, error) {
	s := c.statement()
	s.vals = append(s.vals, vals...)
	sq, err := s.lendQuery(t)
	return s, sq, err
}

// StartUpdate is StartQuery for an update, which is lent from the
// statement until the caller gives it back once the update is answered.
func (c *Client) StartUpdate(t *template.Template, vals []sqlparse.Value) (*Statement, wire.SealedUpdate, error) {
	s := c.statement()
	s.vals = append(s.vals, vals...)
	su, err := s.lendUpdate(t)
	return s, su, err
}

// Query executes one query template instance end to end.
func (c *Client) Query(t *template.Template, params ...interface{}) (*QueryResult, error) {
	return c.QueryContext(context.Background(), t, params...)
}

// QueryContext is Query bounded by ctx. The query is sealed into a pooled
// statement and lent to the front for the call, and the front replies to
// the statement, so a hit allocates only the answer box it returns.
func (c *Client) QueryContext(ctx context.Context, t *template.Template, params ...interface{}) (*QueryResult, error) {
	s := c.statement()
	defer s.Release()
	var err error
	if s.vals, err = appendParams(s.vals, params); err != nil {
		return nil, err
	}
	sq, err := s.lendQuery(t)
	if err != nil {
		return nil, err
	}
	if err := c.front().Query(ctx, sq, s); err != nil {
		return nil, err
	}
	return s.out, s.err
}

// Update executes one update template instance end to end: the update is
// routed (encrypted) via the DSSP to the home server, and the DSSP
// invalidates after completion (Figure 2).
func (c *Client) Update(t *template.Template, params ...interface{}) (affected, invalidated int, err error) {
	return c.UpdateContext(context.Background(), t, params...)
}

// UpdateContext is Update bounded by ctx. The update is sealed into a
// pooled statement and lent to the front for the call, as a query is, so
// a warm update allocates nothing here: the front's one keeper of an
// update, the pipeline's update call, copies it (pipeline.Front).
func (c *Client) UpdateContext(ctx context.Context, t *template.Template, params ...interface{}) (affected, invalidated int, err error) {
	s := c.statement()
	defer s.Release()
	if s.vals, err = appendParams(s.vals, params); err != nil {
		return 0, 0, err
	}
	su, err := s.lendUpdate(t)
	if err != nil {
		return 0, 0, err
	}
	affected, invalidated, _, err = c.front().Update(ctx, su)
	return affected, invalidated, err
}
