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
	"time"

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

	adm admission   // bounds concurrent executions, FIFO
	mon monitorGate // releases update confirmations per monitoring interval

	// seqCtr assigns each applied update its position in the master
	// database's serialization order. It is incremented while the write
	// lock is held, so sequence order equals apply order — the property a
	// replica needs to reconstruct the same database state by replaying
	// confirmed updates in sequence.
	seqCtr atomic.Uint64

	// confirmed is the high-water confirmed sequence: every update with
	// seq ≤ confirmed has passed the monitoring gate and been handed to
	// the confirmation sink (if any), in order and without gaps.
	confirmed atomic.Uint64

	// disp delivers confirmations to the OnConfirm sink in strict
	// sequence order, buffering any that arrive out of order.
	disp confirmDispatch

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

	// Per-template load-counter handles, cached so the execution hot
	// paths skip the registry's lock-and-lookup (which allocates a label
	// key per call). SetObs swaps the registry, so it also replaces
	// these maps; they are read-mostly after the first request per
	// template.
	ctrMu        sync.RWMutex
	qCtrs, uCtrs map[string]*obs.Counter
}

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
	s.disp.confirmed = &s.confirmed
	s.mon.disp = &s.disp
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
	s.mon.releases = reg.Counter(obs.MHomeMonitorReleases)
	s.ctrMu.Lock()
	s.qCtrs = make(map[string]*obs.Counter) // old handles point into the old registry
	s.uCtrs = make(map[string]*obs.Counter)
	s.ctrMu.Unlock()
}

// tmplCounter returns the cached per-template counter handle, registering
// it on the template's first statement. Registry handles are stable per
// label set, so a racing registration resolves to the same instrument.
func (s *Server) tmplCounter(m *map[string]*obs.Counter, metric, id string) *obs.Counter {
	s.ctrMu.RLock()
	c := (*m)[id]
	s.ctrMu.RUnlock()
	if c == nil {
		c = s.reg.Counter(metric, obs.L(obs.LTemplate, id))
		s.ctrMu.Lock()
		(*m)[id] = c
		s.ctrMu.Unlock()
	}
	return c
}

// SetMonitoringInterval makes the server confirm completed updates in
// batches, once per interval (§2.2: the DSSP learns of updates by
// monitoring the update stream, an inherently interval-batched process).
// An update is applied to the master database immediately, but its
// confirmation — the response the DSSP's invalidation monitor acts on —
// is held until the interval boundary, so every node sees one batch of
// confirmations per interval and can amortize its bucket walks across it.
// 0 (the default) confirms each update as it completes. Set before
// serving traffic. The interval runs on the wall clock; the simulator
// models the interval at the node batcher on virtual time instead.
func (s *Server) SetMonitoringInterval(d time.Duration) { s.mon.setInterval(d) }

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
// trace, and returns the release function.
func (s *Server) admit(wait *obs.Histogram, trace, parent, tmpl string) func() {
	sp := s.tracer.StartSpan(trace, parent, obs.StageAdmission, tmpl)
	start := s.tracer.Now()
	s.adm.acquire(s.queueDepth)
	wait.Observe(s.tracer.Now() - start)
	sp.End()
	return func() { s.adm.release(s.queueDepth) }
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
	release := s.admit(s.waitQ, sq.TraceID, sq.ParentSpan, t.ID)
	sp := s.tracer.StartSpan(sq.TraceID, sq.ParentSpan, obs.StageHomeExec, t.ID)
	s.mu.RLock()
	r, execErr := qp.plan.Run(s.DB, params)
	s.mu.RUnlock()
	sp.End()
	release()
	if execErr != nil {
		return wire.SealedResult{}, false, 0, execErr
	}
	s.queries.Add(1)
	s.tmplCounter(&s.qCtrs, obs.MHomeQueries, t.ID).Inc()
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
	release := s.admit(s.waitU, su.TraceID, su.ParentSpan, t.ID)
	sp := s.tracer.StartSpan(su.TraceID, su.ParentSpan, obs.StageHomeExec, t.ID)
	s.mu.Lock()
	n, execErr := engine.ExecUpdate(s.DB, t.Stmt, params)
	var seq uint64
	if execErr == nil {
		// Assigned under the write lock, so sequence order is exactly
		// the order updates hit the master database.
		seq = s.seqCtr.Add(1)
	}
	s.mu.Unlock()
	sp.End()
	release()
	if execErr != nil {
		return 0, 0, execErr
	}
	s.updates.Add(1)
	s.tmplCounter(&s.uCtrs, obs.MHomeUpdates, t.ID).Inc()
	// The update is applied; hold its confirmation until the monitoring
	// interval releases the batch (no-op when no interval is set). After
	// the admission slot is released, so a parked confirmation never
	// blocks other statements from executing.
	s.mon.await(Confirmed{Seq: seq, Update: su})
	return n, seq, nil
}

// Confirmed is one update that has passed the monitoring gate: applied to
// the master database at position Seq and confirmed to the DSSP tier. The
// OnConfirm sink receives these in strict sequence order — the stream a
// read replica replays to reconstruct the master database.
type Confirmed struct {
	Seq    uint64
	Update wire.SealedUpdate
}

// OnConfirm registers the confirmation sink: it is invoked with each
// contiguous, sequence-ordered batch of confirmed updates as the
// monitoring gate releases them (per update when no interval is set).
// Calls are serialized and ordered; an update is handed to the sink only
// after its confirmation is released, never before. Set before serving
// traffic.
func (s *Server) OnConfirm(sink func([]Confirmed)) {
	s.disp.mu.Lock()
	s.disp.sink = sink
	s.disp.mu.Unlock()
}

// ConfirmedSeq reports the high-water confirmed sequence number: every
// update at or below it has been released by the monitoring gate (and
// delivered to the OnConfirm sink, if one is registered).
func (s *Server) ConfirmedSeq() uint64 { return s.confirmed.Load() }

// AssignedSeq reports the highest sequence number assigned so far. When
// AssignedSeq() == ConfirmedSeq() and no statements are in flight, the
// confirmation stream is fully drained — the graceful-shutdown condition.
func (s *Server) AssignedSeq() uint64 { return s.seqCtr.Load() }

// Flush releases the monitoring gate's current epoch immediately, without
// waiting for the interval timer: every parked confirmation is delivered
// now. Used by graceful shutdown so replica streams never end on a torn
// interval.
func (s *Server) Flush() { s.mon.flush() }

// confirmDispatch reorders confirmations into strict sequence order
// before handing them to the sink. Gate releases deliver whole epochs,
// but two updates of one epoch park in whichever order their goroutines
// reach the gate — and an update mid-execution at release time confirms
// in a later epoch. The dispatcher buffers any out-of-order confirmation
// and delivers the longest contiguous prefix each push.
type confirmDispatch struct {
	mu        sync.Mutex
	next      uint64 // next sequence to deliver; 0 means "not started" (≡ 1)
	buf       map[uint64]Confirmed
	sink      func([]Confirmed)
	confirmed *atomic.Uint64
}

// push buffers the batch and delivers the contiguous prefix, advancing
// the confirmed high-water mark before the sink sees the batch. The sink
// runs under the dispatcher lock, which is what serializes and orders its
// invocations.
func (d *confirmDispatch) push(batch []Confirmed) {
	if len(batch) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.next == 0 {
		d.next = 1
	}
	if d.buf == nil {
		d.buf = make(map[uint64]Confirmed)
	}
	for _, c := range batch {
		d.buf[c.Seq] = c
	}
	var out []Confirmed
	for {
		c, ok := d.buf[d.next]
		if !ok {
			break
		}
		delete(d.buf, d.next)
		d.next++
		out = append(out, c)
	}
	if len(out) == 0 {
		return
	}
	d.confirmed.Store(out[len(out)-1].Seq)
	if d.sink != nil {
		d.sink(out)
	}
}

// monitorGate parks update confirmations until the monitoring interval
// expires and then releases them together. The first update to arrive in
// an idle interval opens an epoch (a channel all updates of the interval
// wait on) and arms its timer; the timer closes the channel, releasing
// every parked confirmation at once — and pushing the epoch's
// confirmations through the dispatcher to the OnConfirm sink first, so by
// the time an update's caller unblocks, its confirmation has been handed
// to the replica stream.
type monitorGate struct {
	mu       sync.Mutex
	interval time.Duration
	epoch    chan struct{}
	parked   []Confirmed
	disp     *confirmDispatch
	releases *obs.Counter
}

func (g *monitorGate) setInterval(d time.Duration) {
	g.mu.Lock()
	g.interval = d
	g.mu.Unlock()
}

func (g *monitorGate) await(c Confirmed) {
	g.mu.Lock()
	if g.interval <= 0 {
		g.mu.Unlock()
		g.disp.push([]Confirmed{c})
		return
	}
	if g.epoch == nil {
		g.epoch = make(chan struct{})
		ch := g.epoch
		time.AfterFunc(g.interval, func() { g.release(ch) })
	}
	ch := g.epoch
	g.parked = append(g.parked, c)
	g.mu.Unlock()
	<-ch
}

// release ends an epoch: exactly one caller (the timer, or a Flush racing
// it) wins the identity check and delivers the epoch's confirmations.
func (g *monitorGate) release(ch chan struct{}) {
	g.mu.Lock()
	if g.epoch != ch {
		g.mu.Unlock()
		return // a racing flush already released this epoch
	}
	g.epoch = nil
	batch := g.parked
	g.parked = nil
	if g.releases != nil {
		g.releases.Inc()
	}
	g.mu.Unlock()
	g.disp.push(batch)
	close(ch)
}

// flush releases the current epoch now, if one is open.
func (g *monitorGate) flush() {
	g.mu.Lock()
	ch := g.epoch
	g.mu.Unlock()
	if ch != nil {
		g.release(ch)
	}
}
