// Package homeserver implements the application's home organization: the
// master database plus the trusted execution endpoint behind the DSSP
// (Figure 1). It opens sealed statements forwarded by the DSSP, executes
// them against the master database, and seals query results according to
// each query template's exposure level.
//
// Consistency follows the paper's design: the DSSP caches read-only
// copies; all updates are applied to master copies here, and the DSSP
// invalidates cached results by monitoring completed updates.
//
// The server is safe for concurrent use (the HTTP deployment executes
// forwarded statements from concurrent handlers): queries share a read
// lock on the master database, updates take the write lock. In front of
// those locks sits an optional admission controller (SetAdmissionLimit): a
// FIFO queue bounding how many statements execute concurrently, so a
// miss storm degrades into an observable queue (depth gauge, wait
// histogram) instead of an unbounded goroutine pile-up on the RWMutex.
package homeserver

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"dssp/internal/engine"
	"dssp/internal/obs"
	"dssp/internal/schema"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// Server is the home organization's database endpoint.
type Server struct {
	DB    *storage.Database
	App   *template.App
	Codec *wire.Codec

	mu sync.RWMutex // guards DB during statement execution

	// plans holds every template of App compiled against DB's schema, by
	// template ID. Built once by New and never written again, so the
	// execution path reads it without a lock; replicas and partition
	// masters are Servers and get theirs the same way.
	plans map[string]compiled

	adm admission // bounds concurrent executions, FIFO

	// scratch pools the *execScratch each statement is read into.
	scratch sync.Pool

	// seqCtr assigns each applied update its position in the master
	// database's serialization order. It is incremented while the write
	// lock is held, so sequence order equals apply order — the property a
	// replica needs to reconstruct the same database state by replaying
	// confirmed updates in sequence.
	seqCtr atomic.Uint64

	// confirmed is the high-water confirmed sequence: every update with
	// seq ≤ confirmed has been handed to the confirmation sink (if any),
	// in order and without gaps.
	confirmed atomic.Uint64

	// confirmMu orders confirmations: ExecUpdate takes it before it
	// releases the write lock, so no later update can confirm ahead of an
	// earlier one, and holds it while it stores confirmed and calls sink.
	confirmMu sync.Mutex
	sink      func(Confirmed)

	queries atomic.Int64
	updates atomic.Int64

	// part/parts make the server one partition of a partitioned master
	// tier (parts <= 1 means unpartitioned): it then refuses any statement
	// whose true template — resolved from the opened payload, never the
	// untrusted routing hint — pins to a different partition, so a
	// misrouted message fails loudly instead of silently forking the
	// serialization order. Set before serving traffic (SetPartition).
	part, parts int

	reg    *obs.Registry
	tracer *obs.Tracer

	// Admission instruments, re-pointed by SetObs. Registered eagerly so
	// every deployment's /v1/metrics has the same shape whether or not a
	// limit is configured.
	queueDepth   *obs.Gauge
	waitQ, waitU *obs.Histogram

	// Per-template load-counter handles, by metric name and template.
	// SetObs swaps the registry, so it also empties the cache.
	tmplCtrs obs.HandleCache[tmplMetric, *obs.Counter]
}

type tmplMetric struct{ metric, id string }

// New builds a home server over a populated master database. Metrics are
// always on: the server starts with a private registry and a wall clock;
// use SetObs to share a registry (and, in the simulator, a virtual
// clock).
func New(db *storage.Database, app *template.App, codec *wire.Codec) *Server {
	s := &Server{DB: db, App: app, Codec: codec, plans: make(map[string]compiled, len(app.Queries)+len(app.Updates))}
	for _, q := range app.Queries {
		plan, err := engine.Compile(db.Schema, q.Stmt.(*sqlparse.SelectStmt))
		s.plans[q.ID] = compiled{query: plan, err: err}
	}
	for _, u := range app.Updates {
		up, err := engine.CompileUpdate(db.Schema, u.Stmt)
		s.plans[u.ID] = compiled{update: up, err: err}
	}
	s.SetObs(obs.NewRegistry(), obs.WallClock())
	return s
}

// compiled is a template compiled by the engine, or why it is not: such a
// template fails each of its executions with that error.
type compiled struct {
	query  *engine.Plan
	update *engine.Update
	err    error
}

// execScratch is what one statement is read into (wire.Codec.ReadPayload):
// its decrypted payload and its parameters, a query's strings lent from the
// payload — and, for a query, the result it runs into and the cipher that
// result is sealed into, which the answer lends (Answer). ExecUpdate holds
// it for the call, ExecQuery until its answer is released. putScratch
// clears the parameters and the result's values, which hold strings, so
// an idle scratch pins nothing; the bytes and the value arrays keep their
// capacity.
type execScratch struct {
	plain  []byte
	params []sqlparse.Value
	res    engine.Result
	cipher []byte
}

// takeScratch returns a pooled scratch, or a new one.
func (s *Server) takeScratch() *execScratch {
	if sc, ok := s.scratch.Get().(*execScratch); ok {
		return sc
	}
	return new(execScratch)
}

// putScratch clears sc and returns it to the pool.
func (s *Server) putScratch(sc *execScratch) {
	clear(sc.params)
	clear(sc.res.Vals)
	sc.params = sc.params[:0]
	sc.res = engine.Result{Vals: sc.res.Vals[:0]}
	s.scratch.Put(sc)
}

// lookup returns t's entry in plans, or why t cannot run.
func (s *Server) lookup(t *template.Template) (compiled, error) {
	c, ok := s.plans[t.ID]
	if !ok {
		return c, fmt.Errorf("homeserver: %s is not a template of %s", t.ID, s.App.Name)
	}
	return c, c.err
}

// SetObs redirects the server's instruments to the given registry and
// clock. The home-server side of each trace — the home_exec stage span
// and per-template load counters — is recorded there.
func (s *Server) SetObs(reg *obs.Registry, clock obs.Clock) {
	s.reg = reg
	s.tracer = obs.NewTracer(reg, clock).SetIdentity(obs.ProcHome, "")
	s.queueDepth = reg.Gauge(obs.MHomeQueueDepth)
	s.waitQ = reg.Histogram(obs.MHomeAdmissionWait, obs.L(obs.LKind, obs.KindQuery))
	s.waitU = reg.Histogram(obs.MHomeAdmissionWait, obs.L(obs.LKind, obs.KindUpdate))
	s.tmplCtrs.Reset() // old handles point into the old registry
}

// tmplCounter returns the per-template counter handle, registering it on
// the template's first statement.
func (s *Server) tmplCounter(metric, id string) *obs.Counter {
	return s.tmplCtrs.Get(tmplMetric{metric, id}, func() *obs.Counter {
		return s.reg.Counter(metric, obs.L(obs.LTemplate, id))
	})
}

// SetAdmissionLimit bounds how many statements may execute concurrently
// (0 = unbounded, the default). Excess statements wait in FIFO order;
// queue depth and per-statement wait time are recorded in the registry.
// Set before serving traffic.
func (s *Server) SetAdmissionLimit(n int) { s.adm.setLimit(n) }

// SetPartition declares this server to be partition part of a master tier
// split into parts partitions by table group (schema.PartitionOf). Every
// statement is then checked after its payload is opened: the guard uses
// the true template's group, so a tampered or misconfigured routing hint
// cannot steer a statement onto the wrong partition's serialization
// order. parts <= 1 restores the unpartitioned behavior. Set before
// serving traffic.
func (s *Server) SetPartition(part, parts int) {
	s.part, s.parts = part, parts
}

// checkPartition rejects a statement whose template pins to a different
// partition than this server.
func (s *Server) checkPartition(t *template.Template) error {
	if s.parts <= 1 {
		return nil
	}
	want := schema.PartitionOf(s.Codec.GroupOf(t), s.parts)
	if want != s.part {
		return fmt.Errorf("homeserver: template %s belongs to partition %d, not %d (misrouted)", t.ID, want, s.part)
	}
	return nil
}

// admit acquires an execution slot, recording the wait both in the
// admission histogram and as an admission_wait span of the request's
// trace. The caller releases the slot with s.adm.release.
func (s *Server) admit(wait *obs.Histogram, trace obs.TraceID, parent obs.SpanID, tmpl string) {
	sp := s.tracer.StartSpan(trace, parent, obs.StageAdmission, tmpl)
	start := s.tracer.Now()
	s.adm.acquire(s.queueDepth)
	wait.Observe(s.tracer.Now() - start)
	sp.End()
}

// Obs returns the registry the server's instruments live in.
func (s *Server) Obs() *obs.Registry { return s.reg }

// Tracer returns the server's tracer, so the HTTP deployment can attach
// a span store for the /v1/trace endpoints.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// QueriesServed and UpdatesApplied report load counters for the
// experiments.
func (s *Server) QueriesServed() int  { return int(s.queries.Load()) }
func (s *Server) UpdatesApplied() int { return int(s.updates.Load()) }

// Answer is the home's answer to one sealed query: the sealed result, the
// emptiness hint (the trusted side reveals cardinality zero so the DSSP
// can uphold the no-empty-results caching policy) and the number of base
// rows scanned (the simulator's cost model input). It is lent: the result
// lies in the scratch the query ran in — a view result by pointer, a
// cipher as its bytes (wire.Codec.LendResult) — which the server takes
// back at Release, so a caller hands the answer on, or copies what it
// keeps of it (wire.SealedResult.Own, a node's cache entry), before it
// releases it.
type Answer struct {
	Result  wire.SealedResult
	Empty   bool
	Scanned int

	s  *Server
	sc *execScratch // nil once released, and for a failed query
}

// Release gives the answer's scratch back to its server: its result is
// gone after it. Releasing an answer twice, or the zero Answer, does
// nothing.
func (a *Answer) Release() {
	if a.sc != nil {
		a.s.putScratch(a.sc)
		a.s, a.sc = nil, nil
	}
}

// ExecQuery opens a sealed query, executes it, and lends its answer, which
// the caller releases once it has handed it on (Answer). The result runs
// into the scratch the payload was read into, and a sealed one is sealed
// there too, so a warm query allocates nothing here. A failed query holds
// no scratch.
func (s *Server) ExecQuery(sq wire.SealedQuery) (Answer, error) {
	sc := s.takeScratch()
	a, err := s.execQuery(sq, sc)
	if err != nil {
		s.putScratch(sc)
		return Answer{}, err
	}
	a.s, a.sc = s, sc
	return a, nil
}

// execQuery is ExecQuery in sc.
func (s *Server) execQuery(sq wire.SealedQuery, sc *execScratch) (Answer, error) {
	t, err := s.Codec.ReadPayload(sq.Opaque, &sc.plain, &sc.params)
	if err != nil {
		return Answer{}, err
	}
	if t.Kind != template.KQuery {
		return Answer{}, fmt.Errorf("homeserver: payload %s is not a query", t.ID)
	}
	if err := s.checkPartition(t); err != nil {
		return Answer{}, err
	}
	c, err := s.lookup(t)
	if err != nil {
		return Answer{}, err
	}
	s.admit(s.waitQ, sq.TraceID, sq.ParentSpan, t.ID)
	sp := s.tracer.StartSpan(sq.TraceID, sq.ParentSpan, obs.StageHomeExec, t.ID)
	s.mu.RLock()
	execErr := c.query.RunInto(s.DB, sc.params, &sc.res)
	s.mu.RUnlock()
	sp.End()
	s.adm.release(s.queueDepth)
	if execErr != nil {
		return Answer{}, execErr
	}
	s.queries.Add(1)
	s.tmplCounter(obs.MHomeQueries, t.ID).Inc()
	// Sealing happens outside the read lock: engine.Result's ownership
	// invariant guarantees result rows never alias storage rows, so a
	// concurrent ExecUpdate mutating the same table cannot race with the
	// serialization here (regression-tested under -race in
	// TestConcurrentQueryUpdateSeal). Nor do they alias the parameters, so
	// a view result's strings outlive the scratch: only its values array
	// is the scratch's.
	r := &sc.res
	return Answer{Result: s.Codec.LendResult(t, r, &sc.cipher), Empty: r.Len() == 0, Scanned: r.RowsScanned}, nil
}

// ExecUpdate opens a sealed update and applies it to the master database.
// It returns the number of rows affected and the update's sequence number
// in the master database's serialization order — the position replicas
// replay it at. su may be lent for the call, its payload in a frame: the
// payload is read into scratch, and only the strings storage keeps are
// copied (keepStored).
func (s *Server) ExecUpdate(su wire.SealedUpdate) (int, uint64, error) {
	sc := s.takeScratch()
	defer s.putScratch(sc)
	t, err := s.Codec.ReadPayload(su.Opaque, &sc.plain, &sc.params)
	if err != nil {
		return 0, 0, err
	}
	if !t.Kind.IsUpdate() {
		return 0, 0, fmt.Errorf("homeserver: payload %s is not an update", t.ID)
	}
	if err := s.checkPartition(t); err != nil {
		return 0, 0, err
	}
	c, err := s.lookup(t)
	if err != nil {
		return 0, 0, err
	}
	keepStored(sc.params, c.update.StoredParams())
	s.admit(s.waitU, su.TraceID, su.ParentSpan, t.ID)
	sp := s.tracer.StartSpan(su.TraceID, su.ParentSpan, obs.StageHomeExec, t.ID)
	s.mu.Lock()
	n, execErr := c.update.Run(s.DB, sc.params)
	var seq uint64
	if execErr == nil {
		// Assigned under the write lock, so sequence order is exactly the
		// order updates hit the master database; and the confirm mutex is
		// taken before the write lock goes, so it is the confirmation
		// order too — the next update cannot reach the sink ahead of this
		// one.
		seq = s.seqCtr.Add(1)
		s.confirmMu.Lock()
	}
	s.mu.Unlock()
	sp.End()
	s.adm.release(s.queueDepth)
	if execErr != nil {
		return 0, 0, execErr
	}
	s.updates.Add(1)
	s.tmplCounter(obs.MHomeUpdates, t.ID).Inc()
	// The update is applied: confirm it. By the time the caller has the
	// answer the DSSP's invalidation monitor acts on, the confirmation has
	// been handed to the replica stream.
	s.confirmed.Store(seq)
	if s.sink != nil {
		s.sink(Confirmed{Seq: seq, Update: su})
	}
	s.confirmMu.Unlock()
	return n, seq, nil
}

// keepStored copies the strings at positions stored of params, which lie in
// the scratch the payload was read into, into one string of their own:
// storage keeps the values an update stores, and the scratch is reused
// once the exec returns. A WHERE clause's strings stay lent, and an update
// that stores no string allocates nothing.
func keepStored(params []sqlparse.Value, stored []int) {
	n := 0
	for _, i := range stored {
		if i < len(params) {
			n += len(params[i].Str)
		}
	}
	if n == 0 {
		return
	}
	var b strings.Builder
	b.Grow(n)
	for _, i := range stored {
		if i < len(params) {
			b.WriteString(params[i].Str)
		}
	}
	own := b.String()
	for _, i := range stored {
		if i < len(params) {
			params[i].Str, own = own[:len(params[i].Str)], own[len(params[i].Str):]
		}
	}
}

// Confirmed is one update applied to the master database at position Seq
// and confirmed to the DSSP tier. The OnConfirm sink receives these in
// strict sequence order — the stream a read replica replays to
// reconstruct the master database. Update is the update ExecUpdate was
// handed, lent for the sink's call as it was lent to ExecUpdate (read in
// place from a frame, or a pipeline call's): a sink that keeps it past
// the call copies it (wire.SealedUpdate.Own).
type Confirmed struct {
	Seq    uint64
	Update wire.SealedUpdate
}

// OnConfirm registers the confirmation sink: it is invoked with each
// confirmed update, one call per update, in sequence order with no gaps.
// Calls are serialized; an update is handed to the sink before its caller
// has the confirmation, and the next update's confirmation waits for the
// sink to return. Set before serving traffic.
func (s *Server) OnConfirm(sink func(Confirmed)) {
	s.confirmMu.Lock()
	s.sink = sink
	s.confirmMu.Unlock()
}

// ConfirmedSeq reports the high-water confirmed sequence number: every
// update at or below it has been delivered to the OnConfirm sink, if one
// is registered.
func (s *Server) ConfirmedSeq() uint64 { return s.confirmed.Load() }

// AssignedSeq reports the highest sequence number assigned so far. When
// AssignedSeq() == ConfirmedSeq() and no statements are in flight, the
// confirmation stream is fully drained — the graceful-shutdown condition.
func (s *Server) AssignedSeq() uint64 { return s.seqCtr.Load() }
