// Package home is the trusted tier behind the node→home seam: Replica,
// the read-replica engine that serves misses and replays the primary's
// confirmed-update stream in strict sequence order; NewTier, the one
// builder of a tier's primaries (*homeserver.Server) and replicas; and
// TierParts, the in-process endpoints for pipeline.NewTierTransport that
// the home and pipeline tests build their tiers with.
//
// Topology: a primary executes every update of its partition and assigns
// each a sequence number under the master database's write lock, and the
// OnConfirm sink streams the confirmations — contiguous, sequence-ordered
// — to K replicas. Replicas start from a database
// identical to the primary's initial state (same application seed) and
// apply the stream in order, so after applying sequence s a replica's
// database is byte-identical to the master's state at s. A node may
// therefore serve a miss from any replica whose applied sequence has
// reached the node's freshness floor (see pipeline.Freshness) and get
// exactly the answer the primary would give.
//
// A tier of P > 1 primaries splits the master database by table group:
// partition p owns every group g with schema.PartitionOf(g, P) == p and
// executes only statements over its own groups. Each partition is a full
// *homeserver.Server — its own master write lock, its own sequence stream
// (sequences are per partition, starting at 1) and its own replica feed —
// so updates to different partitions commit concurrently instead of
// serializing on one write lock. Every
// partition's database is populated from the same application seed (each
// holds the full schema; the group split decides which tables a
// partition's statements may touch, not which tables exist). Cross-group
// templates cannot occur by construction: a template referencing tables
// of two FK components merges those components into one group at
// derivation time (schema.DeriveGroups), so every template pins to
// exactly one partition.
package home
