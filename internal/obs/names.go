package obs

// Metric names shared by the simulator and the HTTP deployment. Keeping
// them in one place is what makes the two pathways produce snapshots with
// identical names and labels.
const (
	// Cache instruments (label: template; invalidations additionally
	// update_template and class).
	MCacheHits          = "dssp_cache_hits_total"
	MCacheMisses        = "dssp_cache_misses_total"
	MCacheStores        = "dssp_cache_stores_total"
	MCacheInvalidations = "dssp_cache_invalidations_total"
	MCacheEvictions     = "dssp_cache_evictions_total"
	MCacheUpdatesSeen   = "dssp_cache_updates_seen_total"
	MCacheEntries       = "dssp_cache_entries" // gauge

	// Stores of a key a bounded cache evicted unhit a moment ago and still
	// remembers (cache/replacement.go): misses a slightly larger cache
	// would have served, which is the signal for sizing -capacity. One
	// series per cache, no template label; unbounded caches do not
	// register it.
	MCacheGhostReadmits = "dssp_cache_ghost_readmits_total"

	// Migrated sealed entries taken in during a ring rebalance. Not
	// stores: the entry was earned by a miss somewhere once; migration
	// only rehomes it. Registered lazily on first import, so static
	// fleets keep their metric shape.
	MCacheImported = "dssp_cache_imported_entries_total"

	// Invalidation routing instruments: buckets an invalidation pass
	// inspected vs. buckets the routing index proved A = 0 and skipped.
	MCacheBucketsVisited = "dssp_cache_invalidation_buckets_visited_total"
	MCacheBucketsSkipped = "dssp_cache_invalidation_buckets_skipped_total"

	// Invalidation batching instruments. Bucket walks count every bucket
	// probe made under a shard lock — the physical work batching
	// amortizes, as opposed to buckets_visited, which counts logical
	// decisions and is identical batched or not. The batch-size histogram
	// reuses the shared log₂-bucketed duration histogram by encoding a
	// batch of n updates as n microseconds, so bucket i holds batches of
	// up to 2^i updates.
	MCacheBucketWalks = "dssp_invalidation_bucket_walks_total"
	MCacheBatchSize   = "dssp_invalidation_batch_size"

	// Per-stage latency histogram (labels: stage, template).
	MStageSeconds = "dssp_stage_seconds"

	// End-to-end request latency at the node, and at the router in front
	// of a fleet of them (labels: kind, template).
	MRequestSeconds = "dssp_request_seconds"

	// Home-server load counters (labels: template — always the real
	// template ID, since the home server holds the keys).
	MHomeQueries = "dssp_home_queries_total"
	MHomeUpdates = "dssp_home_updates_total"

	// Pipeline single-flight instrument: misses that joined an in-flight
	// home-server fetch for the same sealed key instead of issuing their
	// own. Registered eagerly by every pipeline so the simulator and the
	// HTTP deployment expose identical shapes.
	MCoalescedMisses = "dssp_pipeline_coalesced_misses_total"

	// Home-server admission-control instruments: statements queued behind
	// the concurrent-execution limit (gauge) and how long each statement
	// waited for an execution slot (histogram, label: kind). The simulator
	// mirrors both from its queueing model of the home CPU.
	MHomeQueueDepth    = "dssp_home_queue_depth"
	MHomeAdmissionWait = "dssp_home_admission_wait_seconds"

	// HTTP deployment error counters, registered lazily on first error:
	// response writes that failed mid-body (the client saw a truncated
	// message, which its strict decoder rejects), idempotent-query retries
	// after connection errors, and staleness headers (confirm/min sequence,
	// replica watermark, partition) that were present but not a number —
	// refused with 400 by a server, returned as an error by a client, never
	// read as 0.
	MHTTPWriteErrors = "dssp_http_write_errors_total"
	MHTTPRetries     = "dssp_http_retries_total"
	MHTTPBadHeaders  = "dssp_http_bad_headers_total"

	// Shard-router instruments. fanout_nodes is a histogram of how many
	// nodes each update actually touched (execution plus pruned
	// invalidation fan-out), encoded like the batch-size histogram — an
	// n-node fan-out is recorded as n microseconds. fanout_skipped counts
	// the invalidation messages the A>0 routing index proved unnecessary
	// (nodes a naive deployment would have broadcast to); broadcasts
	// counts updates that had to reach every node because their template
	// was hidden or unknown. proxy_errors counts failed proxied calls
	// (label: kind), after the per-node retry/backoff gave up. node_seconds
	// is the per-node round-trip latency histogram (labels: node, kind).
	MRouterFanoutNodes   = "dssp_router_fanout_nodes"
	MRouterFanoutSkipped = "dssp_router_fanout_skipped_total"
	MRouterBroadcasts    = "dssp_router_broadcasts_total"
	MRouterProxyErrors   = "dssp_router_proxy_errors_total"
	MRouterNodeSeconds   = "dssp_router_node_seconds"

	// Elastic-fleet instruments, registered lazily on first use (only
	// deployments that change membership expose them). query_retries
	// counts idempotent proxied queries re-sent once after a connection
	// error — e.g. racing a just-joined node's listener. blind_cache_*
	// count the router-side blind-key cache's warm pins served vs. ring
	// recomputations; migrations counts committed membership changes
	// (label: kind — join/leave/kill); migrated_entries counts sealed
	// cache entries streamed between nodes during warm handoffs.
	MRouterQueryRetries    = "dssp_router_query_retries_total"
	MRouterBlindCacheHits  = "dssp_router_blind_cache_hits_total"
	MRouterBlindCacheMiss  = "dssp_router_blind_cache_misses_total"
	MRouterMigrations      = "dssp_router_ring_migrations_total"
	MRouterMigratedEntries = "dssp_router_migrated_entries_total"

	// Replicated home tier instruments, registered only when a node's
	// transport is a ReplicaSet (so single-home deployments keep their
	// metric shape). replica_misses counts misses served by each read
	// replica (label: replica); replica_bypasses counts misses that fell
	// back to the primary (label: reason — "lag" when the selected
	// replica had not applied the node's freshness floor, "error" when
	// the replica call failed); replica_lag is the last observed
	// floor-minus-applied gap per replica (label: replica), in confirmed
	// update sequence numbers; replica_applied mirrors each replica's
	// applied sequence on the replica process itself, where
	// replica_apply_errors counts confirmed updates its engine refused
	// (label: replica) — each one stalls the watermark for good.
	MHomeReplicaMisses   = "dssp_home_replica_misses_total"
	MHomeReplicaBypasses = "dssp_home_replica_bypasses_total"
	MHomeReplicaLag      = "dssp_home_replica_lag"
	MHomeReplicaApplied  = "dssp_home_replica_applied_seq"

	MHomeReplicaApplyErrors = "dssp_home_replica_apply_errors_total"
)

// Label keys.
const (
	LTemplate       = "template"
	LUpdateTemplate = "update_template"
	LStage          = "stage"
	LClass          = "class"
	LKind           = "kind"
	LNode           = "node"
	LReplica        = "replica"
	LReason         = "reason"
)

// Pipeline stages of one request, in flow order. Seal and open run on the
// trusted side; route at the shard router (one span per proxied call,
// labelled with the target node); cache_lookup, network (the full
// upstream round trip a cache miss or update pays, home execution
// included), coalesce_wait (a miss parked on another miss's in-flight
// fetch), and invalidate on the DSSP node; admission_wait and home_exec
// at the home server.
const (
	StageSeal         = "seal"
	StageRoute        = "route"
	StageLookup       = "cache_lookup"
	StageNetwork      = "network"
	StageCoalesceWait = "coalesce_wait"
	StageAdmission    = "admission_wait"
	StageHomeExec     = "home_exec"
	StageInvalidate   = "invalidate"
	StageOpen         = "open"
)

// Process roles a span can be recorded at (SpanRecord.Process): the
// trusted client, the untrusted router and node tiers, and the trusted
// home server. The simulator uses the same roles on virtual time, so
// stitched traces have the same shape in both runtimes.
const (
	ProcClient = "client"
	ProcRouter = "router"
	ProcNode   = "node"
	ProcHome   = "home"
)

// Request kinds. KindInvalidate is the shard router's invalidation-only
// fan-out message: the update is already confirmed at the home server and
// the target node only monitors it.
const (
	KindQuery      = "query"
	KindUpdate     = "update"
	KindInvalidate = "invalidate"
)

// BlindTemplate is the template label value used when the template
// identity is hidden from the observer (blind exposure).
const BlindTemplate = "(blind)"

// Tmpl maps a possibly-hidden template ID to its metric label value.
func Tmpl(id string) string {
	if id == "" {
		return BlindTemplate
	}
	return id
}
