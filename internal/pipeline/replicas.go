package pipeline

import (
	"context"
	"fmt"
	"sync/atomic"

	"dssp/internal/obs"
	"dssp/internal/wire"
)

// Freshness is a node's confirmed-update floor, one per home partition:
// the highest sequence number the node has learned is confirmed in each
// partition's serialization order — from its own updates' responses and
// from invalidation fan-out for updates confirmed elsewhere. The
// correctness invariant of the replicated home tier is that a miss is
// never served by a replica that has not applied every update of its
// partition at or below that partition's floor: the node has already
// invalidated for those updates, so a staler answer would be cached and
// never invalidated again.
//
// Entries are indexed by table group (the wire-level routing hint); a
// group maps to its partition's slot via schema.PartitionOf's rule
// (group mod partitions), applied internally — so an update only ever
// raises the floor of the partition it executed on, and a miss only
// checks the floor of the partition that will serve it.
type Freshness struct {
	floors []atomic.Uint64
}

// NewFreshnessParts returns a floor vector for a home tier split into
// parts partitions (minimum 1), all starting at zero; with one part every
// group shares slot 0. NewTierTransport is its production caller.
func NewFreshnessParts(parts int) *Freshness {
	if parts < 1 {
		parts = 1
	}
	return &Freshness{floors: make([]atomic.Uint64, parts)}
}

// Parts reports the number of partition slots.
func (f *Freshness) Parts() int { return len(f.floors) }

// slot maps a table group to its partition's floor entry.
func (f *Freshness) slot(group int) *atomic.Uint64 {
	if group <= 0 || len(f.floors) == 1 {
		return &f.floors[0]
	}
	return &f.floors[group%len(f.floors)]
}

// Raise lifts the floor of group's partition to seq if it is higher; it
// never lowers, and it never touches another partition's floor.
func (f *Freshness) Raise(group int, seq uint64) {
	raise(f.slot(group), seq)
}

// Floor reports the confirmed-update floor of group's partition.
func (f *Freshness) Floor(group int) uint64 { return f.slot(group).Load() }

// Floors snapshots every partition's floor, in partition order.
func (f *Freshness) Floors() []uint64 {
	out := make([]uint64, len(f.floors))
	for i := range f.floors {
		out[i] = f.floors[i].Load()
	}
	return out
}

// LagError is a replica's refusal to serve a query because it has not yet
// applied the caller's freshness floor. Applied is the replica's current
// applied sequence — the caller uses it to refresh its view of the
// replica before falling back to the primary. Part identifies the home
// partition the refusal is about (0 in an unpartitioned tier): sequences
// are per-partition, so the pair (Part, Applied) is what positions the
// replica in its stream.
type LagError struct {
	Applied uint64
	Want    uint64
	Part    int
}

func (e *LagError) Error() string {
	return fmt.Sprintf("replica lagging: partition %d applied %d, want %d", e.Part, e.Applied, e.Want)
}

// ReplicaBackend serves cache misses from one home read replica, subject
// to a freshness floor: if the replica has applied every confirmed update
// at or below minSeq it answers (reporting its applied sequence in
// ExecQueryResult.Applied), otherwise it resolves done with a *LagError
// carrying its applied sequence. done must be called exactly once.
type ReplicaBackend interface {
	QueryAt(ctx context.Context, sq wire.SealedQuery, minSeq uint64, done func(ExecQueryResult, error))
}

// ReplicaEndpoint names one replica backend for selection and metrics.
type ReplicaEndpoint struct {
	Name    string
	Backend ReplicaBackend
}

// replicaState is the node's view of one replica: the highest applied
// sequence it has reported (via answers and lag refusals) and the number
// of misses currently in flight to it.
//
// Counter contract: misses counts only misses this replica actually
// served. A refusal or failure that bypasses to the primary counts once,
// in the bypass instrument for its reason, and nowhere else — so the
// per-replica miss counters plus the bypass counters partition the
// replica-routed miss stream exactly (pinned by
// TestReplicaSetBypassCountsOnceNotAsMiss).
type replicaState struct {
	ep       ReplicaEndpoint
	applied  atomic.Uint64
	inflight atomic.Int64
	misses   *obs.Counter
	lag      *obs.Gauge
}

// ReplicaSet is a Transport over a replicated home tier: updates always
// execute on the primary; misses are spread across read replicas —
// preferring replicas known to have applied the node's freshness floor,
// least-loaded first, round-robin among ties — and fall back to the
// primary whenever the selected replica lags the floor or fails. When no
// replica is known fresh the set probes one optimistically: a fresh
// replica answers, a lagging one refuses cheaply and refreshes the node's
// view of it (which is also how a caught-up replica gets rediscovered).
type ReplicaSet struct {
	primary Transport
	reps    []*replicaState
	fresh   *Freshness
	rr      atomic.Uint64

	bypassLag *obs.Counter
	bypassErr *obs.Counter
}

// NewReplicaSet builds a replica-spreading transport over the primary's
// transport and the given replica endpoints; NewTierTransport is its
// production caller. fresh must be the same Freshness object passed to
// the pipeline's Options, so update confirmations raise the floor the
// selection honors. reg registers the replica instruments (nil disables
// them); single-home deployments never construct a ReplicaSet, which
// keeps their metric shape unchanged.
func NewReplicaSet(primary Transport, replicas []ReplicaEndpoint, fresh *Freshness, reg *obs.Registry) *ReplicaSet {
	s := &ReplicaSet{primary: primary, fresh: fresh}
	for _, ep := range replicas {
		st := &replicaState{ep: ep}
		if reg != nil {
			st.misses = reg.Counter(obs.MHomeReplicaMisses, obs.L(obs.LReplica, ep.Name))
			st.lag = reg.Gauge(obs.MHomeReplicaLag, obs.L(obs.LReplica, ep.Name))
		}
		s.reps = append(s.reps, st)
	}
	if reg != nil && len(replicas) > 0 {
		s.bypassLag = reg.Counter(obs.MHomeReplicaBypasses, obs.L(obs.LReason, "lag"))
		s.bypassErr = reg.Counter(obs.MHomeReplicaBypasses, obs.L(obs.LReason, "error"))
	}
	return s
}

// staleProbeEvery sets how often a miss is spent probing a replica whose
// last known watermark trails the floor. Probes are what rediscover a
// replica after it catches up (a refusal refreshes the node's view, an
// answer proves freshness); without them a once-lagging replica would be
// skipped forever while any fresh one exists.
const staleProbeEvery = 16

// pick selects the replica for a miss at the given floor: the
// least-loaded replica known to have applied the floor, with a rotating
// start among ties — the scan starts one position later each call and
// strict less-than keeps the first equal-load candidate, so equal-load
// fleets rotate deterministically instead of concentrating on the lowest
// index. When no replica is known fresh — or periodically, one miss in
// staleProbeEvery — a stale replica is probed instead.
func (s *ReplicaSet) pick(floor uint64) *replicaState {
	n := len(s.reps)
	tick := s.rr.Add(1) - 1
	start := int(tick % uint64(n))
	var best, stale *replicaState
	var bestLoad int64
	for k := 0; k < n; k++ {
		r := s.reps[(start+k)%n]
		if r.applied.Load() < floor {
			if stale == nil {
				stale = r
			}
			continue
		}
		if load := r.inflight.Load(); best == nil || load < bestLoad {
			best, bestLoad = r, load
		}
	}
	if stale != nil && (best == nil || tick%staleProbeEvery == 0) {
		return stale
	}
	return best
}

// ExecQuery serves a miss from a replica when possible, the primary
// otherwise. Queries are idempotent reads, so any replica failure —
// lagging or down — degrades to a primary execution, never an error the
// caller sees (unless the primary itself fails).
func (s *ReplicaSet) ExecQuery(ctx context.Context, sq wire.SealedQuery, done func(ExecQueryResult, error)) {
	if len(s.reps) == 0 {
		s.primary.ExecQuery(ctx, sq, done)
		return
	}
	floor := s.fresh.Floor(sq.Group)
	r := s.pick(floor)
	r.inflight.Add(1)
	r.ep.Backend.QueryAt(ctx, sq, floor, func(er ExecQueryResult, err error) {
		r.inflight.Add(-1)
		if err == nil {
			raise(&r.applied, er.Applied)
			if r.misses != nil {
				r.misses.Inc()
			}
			if r.lag != nil {
				r.lag.Set(gap(floor, er.Applied))
			}
			done(er, nil)
			return
		}
		if le, ok := err.(*LagError); ok {
			raise(&r.applied, le.Applied)
			if r.lag != nil {
				r.lag.Set(gap(floor, le.Applied))
			}
			if s.bypassLag != nil {
				s.bypassLag.Inc()
			}
		} else if s.bypassErr != nil {
			s.bypassErr.Inc()
		}
		s.primary.ExecQuery(ctx, sq, done)
	})
}

// ExecUpdate always executes on the primary; its confirmed sequence comes
// back in ExecUpdateResult.Seq and the pipeline raises the freshness
// floor before invalidating.
func (s *ReplicaSet) ExecUpdate(ctx context.Context, su wire.SealedUpdate, done func(ExecUpdateResult, error)) {
	s.primary.ExecUpdate(ctx, su, done)
}

func raise(a *atomic.Uint64, seq uint64) {
	for {
		cur := a.Load()
		if seq <= cur || a.CompareAndSwap(cur, seq) {
			return
		}
	}
}

func gap(floor, applied uint64) int64 {
	if applied >= floor {
		return 0
	}
	return int64(floor - applied)
}
