package home

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dssp/internal/homeserver"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// Replica is a home-tier read replica: a full trusted execution engine
// over its own copy of the master database, kept consistent by replaying
// the primary's confirmed-update stream in strict sequence order. It
// serves cache misses (ExecQuery) but never originates updates — its only
// write path is Apply.
//
// Apply tolerates the transport's failure modes: batches may arrive out
// of order (buffered until the gap fills) or more than once (duplicates
// below the applied watermark are ignored), so a retrying stream is safe.
type Replica struct {
	name string
	srv  *homeserver.Server

	mu      sync.Mutex
	next    uint64 // next sequence to apply; 0 means "not started" (≡ 1)
	pending map[uint64]wire.SealedUpdate

	applied atomic.Uint64

	// delay, when positive, stalls each ApplyBatch — the
	// -inject-replica-lag fault knob, for proving lagging replicas are
	// bypassed rather than served stale.
	delay atomic.Int64

	// part is the home partition this replica mirrors (0 in an
	// unpartitioned tier); lag refusals carry it so the node can tell
	// which partition's stream the replica is behind on.
	part int

	appliedGauge *obs.Gauge
	applyErrors  *obs.Counter
}

// NewReplica builds a replica over db, which must be byte-identical to
// the primary's database at sequence 0 (populate both from the same
// application seed).
func NewReplica(name string, db *storage.Database, app *template.App, codec *wire.Codec) *Replica {
	r := &Replica{name: name, srv: homeserver.New(db, app, codec)}
	r.SetObs(r.srv.Obs(), obs.WallClock())
	return r
}

// Name identifies the replica in metrics and selection.
func (r *Replica) Name() string { return r.name }

// SetPartition records which home partition this replica mirrors; its
// engine then also refuses misrouted statements, exactly as the
// partition's primary does.
func (r *Replica) SetPartition(part, parts int) {
	r.part = part
	r.srv.SetPartition(part, parts)
}

// Partition reports which home partition this replica mirrors (0 when
// unpartitioned).
func (r *Replica) Partition() int { return r.part }

// SetObs redirects the replica's instruments (its engine's, plus the
// applied-sequence gauge and the apply-error counter) to the given
// registry and clock.
func (r *Replica) SetObs(reg *obs.Registry, clock obs.Clock) {
	r.srv.SetObs(reg, clock)
	r.appliedGauge = reg.Gauge(obs.MHomeReplicaApplied, obs.L(obs.LReplica, r.name))
	r.applyErrors = reg.Counter(obs.MHomeReplicaApplyErrors, obs.L(obs.LReplica, r.name))
}

// Obs returns the registry the replica's instruments live in.
func (r *Replica) Obs() *obs.Registry { return r.srv.Obs() }

// Tracer exposes the engine's tracer for span-store attachment.
func (r *Replica) Tracer() *obs.Tracer { return r.srv.Tracer() }

// SetAdmissionLimit bounds concurrent statement execution on the replica,
// mirroring the primary's admission control.
func (r *Replica) SetAdmissionLimit(n int) { r.srv.SetAdmissionLimit(n) }

// SetApplyDelay injects d of lag into every ApplyBatch (0 disables).
func (r *Replica) SetApplyDelay(d time.Duration) { r.delay.Store(int64(d)) }

// Applied reports the replica's applied-sequence watermark: every
// confirmed update at or below it is reflected in the replica's database.
func (r *Replica) Applied() uint64 { return r.applied.Load() }

// ExecQuery executes a sealed query against the replica's database.
func (r *Replica) ExecQuery(sq wire.SealedQuery) (wire.SealedResult, bool, int, error) {
	return r.srv.ExecQuery(sq)
}

// QueriesServed reports the replica's query load counter.
func (r *Replica) QueriesServed() int { return r.srv.QueriesServed() }

// ApplyBatch replays one confirmed batch. Updates apply in sequence
// order; out-of-order batches are buffered, duplicates skipped. An
// execution error is fatal for the replica's consistency: it is counted
// (dssp_home_replica_apply_errors_total) and returned without advancing
// the watermark past the failing update.
func (r *Replica) ApplyBatch(batch []homeserver.Confirmed) error {
	if d := time.Duration(r.delay.Load()); d > 0 {
		time.Sleep(d)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next == 0 {
		r.next = 1
	}
	if r.pending == nil {
		r.pending = make(map[uint64]wire.SealedUpdate)
	}
	for _, c := range batch {
		if c.Seq < r.next {
			continue // duplicate delivery — already applied
		}
		r.pending[c.Seq] = c.Update
	}
	for {
		su, ok := r.pending[r.next]
		if !ok {
			return nil
		}
		delete(r.pending, r.next)
		if _, _, err := r.srv.ExecUpdate(su); err != nil {
			r.applyErrors.Inc()
			return fmt.Errorf("replica %s: apply seq %d: %w", r.name, r.next, err)
		}
		r.applied.Store(r.next)
		if r.appliedGauge != nil {
			r.appliedGauge.Set(int64(r.next))
		}
		r.next++
	}
}

// QueryBackend adapts the replica to the pipeline's replica-set
// transport: it answers when the replica has applied the caller's
// freshness floor and refuses with a pipeline.LagError otherwise.
// Applies are monotone, so a watermark at or past the floor at check
// time guarantees the database already contains every update the floor
// covers.
func (r *Replica) QueryBackend() pipeline.ReplicaBackend {
	return replicaQueryBackend{r}
}

type replicaQueryBackend struct{ r *Replica }

func (b replicaQueryBackend) QueryAt(_ context.Context, sq wire.SealedQuery, minSeq uint64, done func(pipeline.ExecQueryResult, error)) {
	if a := b.r.Applied(); a < minSeq {
		done(pipeline.ExecQueryResult{}, &pipeline.LagError{Applied: a, Want: minSeq, Part: b.r.part})
		return
	}
	res, empty, scanned, err := b.r.ExecQuery(sq)
	done(pipeline.ExecQueryResult{Result: res, Empty: empty, Scanned: scanned, Applied: b.r.Applied()}, err)
}
