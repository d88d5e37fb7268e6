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

	// plans holds every query template of App compiled against DB's
	// schema, by template ID. Built once by New and never written again,
	// so the execution path reads it without a lock; replicas and
	// partition masters are Servers and get theirs the same way.
	plans map[string]queryPlan

	adm admission // bounds concurrent executions, FIFO

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
	s := &Server{DB: db, App: app, Codec: codec, plans: make(map[string]queryPlan, len(app.Queries))}
	for _, q := range app.Queries {
		plan, err := engine.Compile(db.Schema, q.Stmt.(*sqlparse.SelectStmt))
		s.plans[q.ID] = queryPlan{plan, err}
	}
	s.SetObs(obs.NewRegistry(), obs.WallClock())
	return s
}

// queryPlan is one query template's compiled plan, or why it has none: a
// template the engine cannot compile fails each of its executions with
// that error, as it did when statements were interpreted per call.
type queryPlan struct {
	plan *engine.Plan
	err  error
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

// ExecQuery opens a sealed query, executes it, and returns the sealed
// result plus an emptiness hint (the trusted side reveals cardinality
// zero so the DSSP can uphold the no-empty-results caching policy) and the
// number of base rows scanned (the simulator's cost model input).
func (s *Server) ExecQuery(sq wire.SealedQuery) (res wire.SealedResult, empty bool, scanned int, err error) {
	t, params, err := s.Codec.OpenPayload(sq.Opaque)
	if err != nil {
		return wire.SealedResult{}, false, 0, err
	}
	if t.Kind != template.KQuery {
		return wire.SealedResult{}, false, 0, fmt.Errorf("homeserver: payload %s is not a query", t.ID)
	}
	if err := s.checkPartition(t); err != nil {
		return wire.SealedResult{}, false, 0, err
	}
	qp, ok := s.plans[t.ID]
	if !ok {
		return wire.SealedResult{}, false, 0, fmt.Errorf("homeserver: query %s is not a template of %s", t.ID, s.App.Name)
	}
	if qp.err != nil {
		return wire.SealedResult{}, false, 0, qp.err
	}
	s.admit(s.waitQ, sq.TraceID, sq.ParentSpan, t.ID)
	sp := s.tracer.StartSpan(sq.TraceID, sq.ParentSpan, obs.StageHomeExec, t.ID)
	s.mu.RLock()
	r, execErr := qp.plan.Run(s.DB, params)
	s.mu.RUnlock()
	sp.End()
	s.adm.release(s.queueDepth)
	if execErr != nil {
		return wire.SealedResult{}, false, 0, execErr
	}
	s.queries.Add(1)
	s.tmplCounter(obs.MHomeQueries, t.ID).Inc()
	// Sealing happens outside the read lock: engine.Result's ownership
	// invariant guarantees result rows never alias storage rows, so a
	// concurrent ExecUpdate mutating the same table cannot race with the
	// serialization here (regression-tested under -race in
	// TestConcurrentQueryUpdateSeal).
	return s.Codec.SealResult(t, r), r.Len() == 0, r.RowsScanned, nil
}

// ExecUpdate opens a sealed update and applies it to the master database.
// It returns the number of rows affected and the update's sequence number
// in the master database's serialization order — the position replicas
// replay it at.
func (s *Server) ExecUpdate(su wire.SealedUpdate) (int, uint64, error) {
	t, params, err := s.Codec.OpenPayload(su.Opaque)
	if err != nil {
		return 0, 0, err
	}
	if !t.Kind.IsUpdate() {
		return 0, 0, fmt.Errorf("homeserver: payload %s is not an update", t.ID)
	}
	if err := s.checkPartition(t); err != nil {
		return 0, 0, err
	}
	s.admit(s.waitU, su.TraceID, su.ParentSpan, t.ID)
	sp := s.tracer.StartSpan(su.TraceID, su.ParentSpan, obs.StageHomeExec, t.ID)
	s.mu.Lock()
	n, execErr := engine.ExecUpdate(s.DB, t.Stmt, params)
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

// Confirmed is one update applied to the master database at position Seq
// and confirmed to the DSSP tier. The OnConfirm sink receives these in
// strict sequence order — the stream a read replica replays to
// reconstruct the master database.
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
