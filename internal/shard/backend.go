package shard

import (
	"context"
	"fmt"

	"dssp/internal/pipeline"
	"dssp/internal/wire"
)

// BucketStore is the slice of a node's cache that sealed-bucket
// migration needs: export, import, and drop of whole template buckets.
// *cache.Cache implements it.
type BucketStore interface {
	ExportBuckets(templateIDs []string) []wire.BucketEntry
	ImportBuckets(entries []wire.BucketEntry) int
	DropBuckets(templateIDs []string) int
}

// PipeBackend adapts one node's pipeline to the Backend interface for
// in-process fleets — the parity tests, the scale-out experiment, and any
// deployment that keeps the whole fleet in one process — and is the
// pipeline.Front through which the in-process client and the node's frame
// handlers reach the pipeline. The HTTP deployment's counterpart is
// httpapi.NodeProxy. Buckets is the node's cache for warm handoff; a nil
// Buckets leaves the node cold-join only.
type PipeBackend struct {
	Pipe    *pipeline.Pipeline
	Buckets BucketStore
}

// Query serves a sealed query through the node's pipeline.
func (b PipeBackend) Query(ctx context.Context, sq wire.SealedQuery, r pipeline.Replier) error {
	reply, err := b.Pipe.QuerySync(ctx, sq)
	if err == nil {
		r.Reply(reply.Result, reply.Hit)
	}
	return err
}

// Update routes a sealed update through the node's full update pathway.
func (b PipeBackend) Update(ctx context.Context, su wire.SealedUpdate) (int, int, uint64, error) {
	reply, err := b.Pipe.UpdateSync(ctx, su)
	return reply.Affected, reply.Invalidated, reply.Seq, err
}

// Invalidate feeds an already-confirmed update (confirmed at home
// sequence seq) into the node's invalidation monitor and waits for its
// count — at the next flush when the node batches per monitoring
// interval, immediately otherwise.
func (b PipeBackend) Invalidate(ctx context.Context, su wire.SealedUpdate, seq uint64) (int, error) {
	return b.Pipe.MonitorSync(ctx, su, seq)
}

// ExportBuckets copies the named template buckets' sealed entries for a
// warm handoff.
func (b PipeBackend) ExportBuckets(_ context.Context, templateIDs []string) ([]wire.BucketEntry, error) {
	if b.Buckets == nil {
		return nil, fmt.Errorf("shard: node has no bucket store (cold join only)")
	}
	return b.Buckets.ExportBuckets(templateIDs), nil
}

// ImportBuckets takes migrated sealed entries into the node's cache.
func (b PipeBackend) ImportBuckets(_ context.Context, entries []wire.BucketEntry) (int, error) {
	if b.Buckets == nil {
		return 0, fmt.Errorf("shard: node has no bucket store (cold join only)")
	}
	return b.Buckets.ImportBuckets(entries), nil
}

// DropBuckets removes migrated buckets after the epoch flip.
func (b PipeBackend) DropBuckets(_ context.Context, templateIDs []string) (int, error) {
	if b.Buckets == nil {
		return 0, fmt.Errorf("shard: node has no bucket store (cold join only)")
	}
	return b.Buckets.DropBuckets(templateIDs), nil
}
