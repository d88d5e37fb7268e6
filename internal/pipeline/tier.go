package pipeline

import "dssp/internal/obs"

// TierPart is one home partition as a node reaches it: the transport to
// the partition's primary, which executes every update and any miss no
// replica may answer, and the partition's read replicas (none = every
// miss goes to the primary).
type TierPart struct {
	Primary  Transport
	Replicas []ReplicaEndpoint
}

// NewTierTransport is the one wiring from a node to its home tier, shared
// by every substrate (HTTP, simulator, in-process): which trusted engine
// may answer a miss — the partition owning the statement's table group,
// a replica only at or above the node's freshness floor — is decided
// here and nowhere else. parts holds one entry per home partition, in
// partition order; each partition with replicas goes behind its own
// ReplicaSet (instruments in reg; nil disables them), and the group
// router picks the partition.
//
// The returned Freshness is the floor vector the replica sets honor and
// must be passed to the node's pipeline as Options.Fresh. It exists only
// when something consumes it — a replica set checking floors, or a
// partitioned tier tracking each partition's stream: for one partition
// without replicas the result is that partition's primary transport
// itself and a nil vector, so the single-home deployment keeps its object
// graph and metric shape.
func NewTierTransport(parts []TierPart, reg *obs.Registry) (Transport, *Freshness) {
	replicated := false
	for _, part := range parts {
		replicated = replicated || len(part.Replicas) > 0
	}
	var fresh *Freshness
	if len(parts) > 1 || replicated {
		fresh = NewFreshnessParts(len(parts))
	}
	ts := make([]Transport, len(parts))
	for p, part := range parts {
		ts[p] = part.Primary
		if len(part.Replicas) > 0 {
			ts[p] = NewReplicaSet(part.Primary, part.Replicas, fresh, reg)
		}
	}
	return NewPartitionedTransport(ts), fresh
}
