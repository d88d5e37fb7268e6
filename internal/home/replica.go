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
// write path is ApplyBatch.
//
// Every feed delivers the stream in sequence order, so ApplyBatch applies
// the run that continues the watermark, skips what it has already applied
// (a retrying stream's resend), and applies nothing from a batch that
// starts past it (what a replica that restarted is sent) — the watermark
// tells the feed where to resend from.
type Replica struct {
	name string
	srv  *homeserver.Server

	mu      sync.Mutex // serializes ApplyBatch
	applied atomic.Uint64

	// delay, when positive, stalls each ApplyBatch — the
	// -inject-replica-lag fault knob, for proving lagging replicas are
	// bypassed rather than served stale.
	delay atomic.Int64

	appliedGauge *obs.Gauge
	applyErrors  *obs.Counter
}

// NewReplica builds a replica over db, which must be byte-identical to
// the primary's database at sequence 0 (populate both from the same
// application seed).
func NewReplica(name string, db *storage.Database, app *template.App, codec *wire.Codec) *Replica {
	srv := homeserver.New(db, app, codec)
	reg := srv.Obs()
	return &Replica{
		name:         name,
		srv:          srv,
		appliedGauge: reg.Gauge(obs.MHomeReplicaApplied, obs.L(obs.LReplica, name)),
		applyErrors:  reg.Counter(obs.MHomeReplicaApplyErrors, obs.L(obs.LReplica, name)),
	}
}

// Name identifies the replica in metrics and selection.
func (r *Replica) Name() string { return r.name }

// SetPartition declares which home partition this replica mirrors: its
// engine then refuses misrouted statements, exactly as the partition's
// primary does.
func (r *Replica) SetPartition(part, parts int) { r.srv.SetPartition(part, parts) }

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

// ApplyBatch replays a sequence-ordered run of the confirmed stream from
// Applied()+1 on: updates at or below the watermark are skipped, and the
// batch stops applying at the first sequence past Applied()+1 — all of a
// batch that starts there — so the caller reads Applied() to learn where
// to resend from. An execution error is fatal for the replica's
// consistency: it is counted (dssp_home_replica_apply_errors_total) and
// returned without advancing the watermark past the failing update.
func (r *Replica) ApplyBatch(batch []homeserver.Confirmed) error {
	if d := time.Duration(r.delay.Load()); d > 0 {
		time.Sleep(d)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range batch {
		next := r.applied.Load() + 1
		if c.Seq < next {
			continue // a resend: already applied
		}
		if c.Seq > next {
			return nil
		}
		if _, _, err := r.srv.ExecUpdate(c.Update); err != nil {
			r.applyErrors.Inc()
			return fmt.Errorf("replica %s: apply seq %d: %w", r.name, c.Seq, err)
		}
		r.applied.Store(c.Seq)
		r.appliedGauge.Set(int64(c.Seq))
	}
	return nil
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
		done(pipeline.ExecQueryResult{}, &pipeline.LagError{Applied: a})
		return
	}
	res, empty, scanned, err := b.r.ExecQuery(sq)
	done(pipeline.ExecQueryResult{Result: res, Empty: empty, Scanned: scanned, Applied: b.r.Applied()}, err)
}
