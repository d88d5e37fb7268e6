// Package simrun assembles and executes the paper's §5.2 experiment: a
// population of emulated clients driving a benchmark application through a
// DSSP node and a home server over simulated network links, in virtual
// time. It lives apart from package workload so benchmark definitions do
// not depend on the full DSSP stack.
package simrun

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	hometier "dssp/internal/home"
	"dssp/internal/homeserver"
	"dssp/internal/leakage"
	"dssp/internal/metrics"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/shard"
	"dssp/internal/sim"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
	"dssp/internal/workload"
)

// Config parameterizes one simulated run.
type Config struct {
	Benchmark workload.Benchmark

	// Exposures assigns exposure levels per template ID. Missing entries
	// default to full exposure.
	Exposures map[string]template.Exposure

	Users     int
	Duration  time.Duration // virtual run length (paper: 10 minutes)
	Warmup    time.Duration // samples before this offset are discarded
	ThinkMean time.Duration // exponential think time mean (paper: 7 s)
	Seed      int64

	Network workload.NetworkModel
	Costs   workload.CostModel

	// Nodes is the number of DSSP nodes (Figure 1 shows several; the
	// paper's prototype used one). Clients are spread round-robin across
	// nodes; every node monitors completed updates for invalidation, the
	// non-issuing nodes one home-link latency later. More nodes add DSSP
	// CPU but — without Affinity — fragment the cache.
	Nodes int

	// Affinity puts a shard.Router in front of the nodes — the deployed
	// scale-out topology: each operation is routed by the router's
	// Planner to the node owning its sealed statement (template affinity
	// for exposed traffic, sealed key for blind), so every template's
	// entries live on exactly one node and per-node hit rates match the
	// single-node deployment. Completed updates fan out only to the nodes
	// the planner could not prove untouched, instead of to everyone; the
	// messages sent and saved land in Result.FanoutMessages/FanoutSkipped.
	// Off, clients stick to their round-robin node and updates broadcast
	// — the pre-scale-out model.
	Affinity bool

	// Fleet schedules ring-membership changes on virtual time, each one a
	// call to the router's own Join or Leave — the code path the HTTP
	// router's /v1/ring endpoints run. Valid only with Affinity
	// (membership is meaningless without the router). Events may be given
	// in any order; each fires at its virtual offset. Migration itself is
	// treated as a control-plane action with no virtual-time cost — what
	// the simulation measures is the traffic's hit-rate response, not the
	// handoff's bandwidth.
	Fleet []FleetEvent

	// MonitorInterval batches each node's invalidation per monitoring
	// interval, on virtual time: confirmed updates accumulate in the
	// node's pipeline batcher and are applied together when the interval
	// expires, exactly as the wall-clock deployments do (the simulator
	// models the interval at the node batcher; the home server's
	// wall-clock gate stays off). 0 invalidates inline per update.
	MonitorInterval time.Duration

	// HomeReplicas adds K trusted read replicas behind each home
	// partition, mirroring the HTTP deployment's replicated home tier:
	// each replica starts from a database populated identically to the
	// master (same benchmark seed), applies its partition's confirmed
	// updates in sequence order, and serves cache misses through each
	// node's pipeline.ReplicaSet — preferring replicas at the node's
	// freshness floor, falling back to the partition primary when a
	// replica lags. 0 (the default) keeps the single-home topology.
	HomeReplicas int

	// HomePartitions splits the home tier's master into P partitions by
	// table group (schema.DeriveGroups over the benchmark app), mirroring
	// the deployed partitioned topology on virtual time: each partition
	// is its own homeserver.Server with its own CPU, write lock, and
	// sequence stream; statements route by their sealed group, and each
	// node's freshness floor is a per-partition vector. 0 or 1 keeps the
	// single-master topology.
	HomePartitions int

	// AnalysisOpts controls the static analysis the DSSP's
	// template-inspection level uses (integrity constraints on/off).
	AnalysisOpts core.Options

	CacheOpts cache.Options

	// Leakage, when true, attaches an adversary's-eye observer at the
	// node trust boundary (on virtual time); the audit lands in
	// Result.Leakage.
	Leakage bool
}

// FleetEvent is one scheduled ring-membership change. Kind "join" adds
// a node (its ID is minted by the router and never reused: one past the
// highest ID ever admitted, so it gets a fresh slot in Result.PerNode);
// "leave" retires the named member; "kill" removes it as a failure.
// Warm, on a join, streams the moved template buckets' sealed entries
// from their old owners before the epoch flips; on a leave it drains the
// departing node's buckets to their survivors. A kill never migrates —
// the dead node's entries are simply lost and re-missed.
type FleetEvent struct {
	At   time.Duration
	Kind string // "join", "leave", or "kill"
	Node int    // the member to remove (leave/kill); ignored for join
	Warm bool
}

// DefaultConfig fills in the paper's §5.2 parameters for a benchmark.
func DefaultConfig(b workload.Benchmark, users int) Config {
	return Config{
		Benchmark:    b,
		Users:        users,
		Duration:     10 * time.Minute,
		ThinkMean:    7 * time.Second,
		Seed:         1,
		Network:      workload.DefaultNetwork(),
		Costs:        workload.DefaultCosts(),
		AnalysisOpts: core.DefaultOptions(),
	}
}

// Result summarizes one simulated run.
type Result struct {
	Users         int
	Pages         int // completed page requests
	Ops           int // completed DB operations
	Response      metrics.Sample
	Cache         cache.Stats
	HomeQueries   int
	HomeUpdates   int
	HomeBusyFrac  float64
	HitRate       float64
	Invalidations int

	// ReplicaQueries counts cache misses served by home read replicas
	// (HomeQueries counts only primary executions); zero without
	// Config.HomeReplicas. Per-replica splits and bypass counts are in
	// the Metrics snapshot (dssp_home_replica_*).
	ReplicaQueries int

	// Metrics is the run's full observability snapshot: the same metric
	// names and labels the HTTP deployment serves from /v1/metrics, with
	// stage latencies recorded in virtual time.
	Metrics obs.Snapshot

	// Traces holds the retained per-stage spans (virtual time), grouped
	// by trace — the input obs.Stitch expects.
	Traces []obs.SpanRecord

	// Leakage is the adversary's-eye audit at the node trust boundary,
	// present when Config.Leakage was set.
	Leakage *leakage.Report

	// Decisions and CacheDump fingerprint node 0's invalidation-decision
	// log and final cache contents, for the adapter parity tests.
	Decisions []cache.Decision
	CacheDump []string

	// PerNode holds each node's own cache counters, indexed by node ID —
	// the per-node hit rates the sim↔HTTP scale-out parity test compares.
	// Nodes that left or were killed keep their slot.
	PerNode []cache.Stats

	// MigratedEntries counts the sealed cache entries streamed between
	// node caches by warm Fleet events (joins and drains).
	MigratedEntries int

	// FanoutMessages and FanoutSkipped count, in Affinity mode, the
	// cross-node invalidation messages actually sent versus the ones the
	// planner's A>0 index proved unnecessary (a naive deployment would
	// have broadcast them). Both zero when Affinity is off.
	FanoutMessages int
	FanoutSkipped  int
}

// simTransport carries sealed messages between one DSSP node and the home
// server over the simulated links, implementing pipeline.Transport on
// virtual-time events: done resolves when the response event arrives, not
// on the caller's stack. The transport plays both roles of the deployment
// — it charges the cost model for the home server's CPU (mirroring the
// queue into the admission metrics the real home server registers) and,
// being omniscient, opens sealed payloads to attribute home-side load to
// true template IDs, exactly as the trusted side does in a real
// deployment. It also fans each completed update out to the other nodes'
// invalidation monitors one home-link propagation later (Figure 1 shows
// several nodes; consistency is per-node): through each node's pipeline
// monitor, so a configured monitoring interval batches the foreign
// updates exactly like the node's own.
type simTransport struct {
	world    *sim.Sim
	reg      *obs.Registry
	tracer   *obs.Tracer
	codec    *wire.Codec
	home     *homeserver.Server
	homeCPU  *sim.Server
	toHome   *sim.Link
	fromHome *sim.Link
	costs    workload.CostModel
	network  workload.NetworkModel
	pipes    []*pipeline.Pipeline
	self     int
	res      *Result

	// planner is the router's in Affinity mode: it prunes the update
	// fan-out to the nodes the shard analysis could not prove untouched.
	// nil broadcasts to every other node (the pre-scale-out model).
	planner *shard.Planner

	// Mirrors of the home server's admission instruments, fed from the
	// simulated home CPU queue so the snapshot has the same shape as
	// /v1/metrics in a real deployment.
	queueDepth   *obs.Gauge
	waitQ, waitU *obs.Histogram
}

// trueTemplate opens a sealed payload to recover the true template ID for
// trusted-side (home server) attribution.
func (t *simTransport) trueTemplate(opaque []byte) string {
	tpl, _, err := t.codec.OpenPayload(opaque)
	if err != nil {
		panic(err)
	}
	return tpl.ID
}

func (t *simTransport) ExecQuery(_ context.Context, sq wire.SealedQuery, done func(pipeline.ExecQueryResult, error)) {
	t.toHome.Send(t.costs.RequestBytes+len(sq.Opaque), func() {
		sealed, empty, scanned, err := t.home.ExecQuery(sq)
		if err != nil {
			panic(err)
		}
		service := t.costs.HomeQueryBase + time.Duration(scanned)*t.costs.HomeQueryPerRow
		submit := t.world.Now()
		t.homeCPU.Submit(service, func() {
			wait := t.world.Now() - submit - service
			t.waitQ.Observe(wait)
			t.queueDepth.Set(int64(t.homeCPU.QueueLen()))
			t.res.HomeQueries++
			tID := t.trueTemplate(sq.Opaque)
			// Home-side spans mirror the real home server's admit-then-
			// execute order, parented to the node's network span.
			t.tracer.ObserveSpan(obs.SpanRecord{Trace: sq.TraceID, Parent: sq.ParentSpan,
				Stage: obs.StageAdmission, Template: tID, Start: submit, Duration: wait})
			t.tracer.ObserveSpan(obs.SpanRecord{Trace: sq.TraceID, Parent: sq.ParentSpan,
				Stage: obs.StageHomeExec, Template: tID, Start: t.world.Now() - service, Duration: service})
			t.reg.Counter(obs.MHomeQueries, obs.L(obs.LTemplate, tID)).Inc()
			t.fromHome.Send(sealed.Size(), func() {
				done(pipeline.ExecQueryResult{Result: sealed, Empty: empty, Scanned: scanned}, nil)
			})
		})
		t.queueDepth.Set(int64(t.homeCPU.QueueLen()))
	})
}

func (t *simTransport) ExecUpdate(_ context.Context, su wire.SealedUpdate, done func(pipeline.ExecUpdateResult, error)) {
	t.toHome.Send(t.costs.RequestBytes+len(su.Opaque), func() {
		submit := t.world.Now()
		t.homeCPU.Submit(t.costs.HomeUpdateCost, func() {
			wait := t.world.Now() - submit - t.costs.HomeUpdateCost
			t.waitU.Observe(wait)
			t.queueDepth.Set(int64(t.homeCPU.QueueLen()))
			affected, seq, err := t.home.ExecUpdate(su)
			if err != nil {
				panic(fmt.Sprintf("simrun: update: %v", err))
			}
			t.res.HomeUpdates++
			tID := t.trueTemplate(su.Opaque)
			t.tracer.ObserveSpan(obs.SpanRecord{Trace: su.TraceID, Parent: su.ParentSpan,
				Stage: obs.StageAdmission, Template: tID, Start: submit, Duration: wait})
			t.tracer.ObserveSpan(obs.SpanRecord{Trace: su.TraceID, Parent: su.ParentSpan,
				Stage: obs.StageHomeExec, Template: tID, Start: t.world.Now() - t.costs.HomeUpdateCost, Duration: t.costs.HomeUpdateCost})
			t.reg.Counter(obs.MHomeUpdates, obs.L(obs.LTemplate, tID)).Inc()
			// Other nodes monitor the completed update too, one home-link
			// propagation later, through their pipeline monitors — which
			// record the invalidate span and, with a monitoring interval
			// configured, batch it with the node's own stream. The issuing
			// node invalidates in the pipeline when done resolves. With a
			// planner (Affinity mode) the fan-out reaches only the nodes
			// the A>0 index could not prove untouched; without one it
			// broadcasts, the pre-scale-out model.
			targets := make([]int, 0, len(t.pipes))
			if t.planner != nil {
				planned, _ := t.planner.Targets(su.TemplateID)
				for _, oi := range planned {
					if oi != t.self {
						targets = append(targets, oi)
					}
				}
				t.res.FanoutMessages += len(targets)
				// Skipped counts against the live member count, not the
				// preallocated fleet arrays — nodes that have left (or not
				// yet joined) were never candidates. During a handoff
				// window the union plan can exceed the live set, so clamp.
				if skipped := t.planner.Nodes() - len(targets) - 1; skipped > 0 {
					t.res.FanoutSkipped += skipped
				}
			} else {
				for oi := range t.pipes {
					if oi != t.self {
						targets = append(targets, oi)
					}
				}
			}
			for _, oi := range targets {
				oi := oi
				t.world.After(t.network.HomeLatency, func() {
					t.pipes[oi].MonitorUpdate(su, seq, func(invalidated int) {
						t.res.Invalidations += invalidated
					})
				})
			}
			t.fromHome.Send(64, func() {
				done(pipeline.ExecUpdateResult{Affected: affected, Seq: seq}, nil)
			})
		})
		t.queueDepth.Set(int64(t.homeCPU.QueueLen()))
	})
}

// simReplicaBackend serves cache misses from one home read replica over
// the simulated links, mirroring simTransport's query path: the same WAN
// hop to the trusted tier, but a per-replica CPU. A lag refusal costs the
// round trip without CPU service — the price the HTTP deployment pays for
// an optimistic probe of a lagging replica.
type simReplicaBackend struct {
	world            *sim.Sim
	rep              *hometier.Replica
	cpu              *sim.Server
	toHome, fromHome *sim.Link
	costs            workload.CostModel
	res              *Result
}

func (b *simReplicaBackend) QueryAt(_ context.Context, sq wire.SealedQuery, minSeq uint64, done func(pipeline.ExecQueryResult, error)) {
	b.toHome.Send(b.costs.RequestBytes+len(sq.Opaque), func() {
		if a := b.rep.Applied(); a < minSeq {
			b.fromHome.Send(64, func() {
				done(pipeline.ExecQueryResult{}, &pipeline.LagError{Applied: a})
			})
			return
		}
		sealed, empty, scanned, err := b.rep.ExecQuery(sq)
		if err != nil {
			panic(err)
		}
		service := b.costs.HomeQueryBase + time.Duration(scanned)*b.costs.HomeQueryPerRow
		b.cpu.Submit(service, func() {
			b.res.ReplicaQueries++
			b.fromHome.Send(sealed.Size(), func() {
				done(pipeline.ExecQueryResult{Result: sealed, Empty: empty, Scanned: scanned, Applied: b.rep.Applied()}, nil)
			})
		})
	})
}

// Simulate executes one run and returns its measurements. The run is
// fully deterministic for a given Config.
func Simulate(cfg Config) (*Result, error) {
	if cfg.Users <= 0 {
		return nil, fmt.Errorf("workload: Users must be positive")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Minute
	}
	if cfg.ThinkMean <= 0 {
		cfg.ThinkMean = 7 * time.Second
	}

	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.HomePartitions <= 0 {
		cfg.HomePartitions = 1
	}
	joins := 0
	for _, ev := range cfg.Fleet {
		switch ev.Kind {
		case "join":
			joins++
		case "leave", "kill":
		default:
			return nil, fmt.Errorf("simrun: fleet event kind %q (want join, leave, or kill)", ev.Kind)
		}
	}
	if len(cfg.Fleet) > 0 && !cfg.Affinity {
		return nil, fmt.Errorf("simrun: Fleet events need Affinity (membership is meaningless without the ownership ring)")
	}
	// The router never reuses a node ID: every join mints one past the
	// highest ID ever admitted, so the fleet arrays are sized for the whole
	// run up front (slots beyond the live set stay nil until their join
	// fires).
	maxNodes := cfg.Nodes + joins
	nParts := cfg.HomePartitions
	rng := rand.New(rand.NewSource(cfg.Seed))
	app := cfg.Benchmark.App()

	// Build the stack: master DB at the home server, cold cache at the
	// DSSP (§5.2: every experiment starts with a cold cache).
	db := storage.NewDatabase(app.Schema)
	if err := cfg.Benchmark.Populate(db, rng); err != nil {
		return nil, fmt.Errorf("workload: populate: %w", err)
	}
	master := make([]byte, encrypt.KeySize)
	rng.Read(master)
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(master), cfg.Exposures)
	analysis := core.Analyze(app, cfg.AnalysisOpts)

	// One registry for the whole run, clocked on virtual time, so the
	// snapshot has exactly the shape /v1/metrics serves in a real
	// deployment — only the clock differs. Spans, though, are recorded by
	// per-role tracers (client, node-i, home) feeding one shared span
	// store, so a stitched sim trace carries the same process/node
	// topology a stitched fleet trace does.
	var world sim.Sim
	reg := obs.NewRegistry()
	store := obs.NewSpanStore(0)
	clock := obs.ClockFunc(world.Now)
	// The emulated clients' trusted side: the client every deployment
	// seals and opens through, on the virtual clock.
	client := &dssp.Client{Codec: codec, Tracer: obs.NewTracer(reg, clock).SetIdentity(obs.ProcClient, "").SetStore(store)}
	homeTracer := obs.NewTracer(reg, clock).SetIdentity(obs.ProcHome, "").SetStore(store)

	cacheOpts := cfg.CacheOpts
	cacheOpts.Obs = reg
	nodes := make([]*dssp.Node, maxNodes)
	nodeCPUs := make([]*sim.Server, maxNodes)
	for i := 0; i < cfg.Nodes; i++ {
		nodes[i] = dssp.NewNode(app, analysis, cacheOpts)
	}

	// The home tier: P partition primaries and K replicas behind each,
	// every one a full engine over its own same-seed database and its own
	// CPU — concurrent write capacity is what the partitioned topology
	// buys, miss capacity what the replicas do. Partition 0 owns the
	// database populated above; the others are populated from a fresh
	// same-seed RNG (Populate is the seed's first use, so every copy is
	// byte-identical).
	firstDB := db
	homes, reps, err := hometier.NewTier(app, codec, func() (*storage.Database, error) {
		if firstDB != nil {
			d := firstDB
			firstDB = nil
			return d, nil
		}
		d := storage.NewDatabase(app.Schema)
		return d, cfg.Benchmark.Populate(d, rand.New(rand.NewSource(cfg.Seed)))
	}, nParts, cfg.HomeReplicas)
	if err != nil {
		return nil, fmt.Errorf("workload: populate: %w", err)
	}
	homeCPUs := make([]*sim.Server, nParts)
	for p := range homeCPUs {
		homeCPUs[p] = sim.NewServer(&world, cfg.Costs.HomeCapacity)
	}
	toHome := sim.NewLink(&world, cfg.Network.HomeLatency, cfg.Network.HomeBitsPS)
	fromHome := sim.NewLink(&world, cfg.Network.HomeLatency, cfg.Network.HomeBitsPS)

	res := &Result{Users: cfg.Users}

	// Each replica fleet sits behind the shared trusted-tier links and
	// applies its partition primary's confirmed stream. The apply is its own
	// event, at the instant of the confirmation but after it: on a real tier
	// the two are separate steps, so an event already due at that instant —
	// a miss reaching a replica — still finds the replica before the update,
	// and applying inside the confirmation would reorder such events.
	repCPUs := make([][]*sim.Server, nParts)
	for p, fleet := range reps {
		repCPUs[p] = make([]*sim.Server, len(fleet))
		for k := range fleet {
			repCPUs[p][k] = sim.NewServer(&world, cfg.Costs.HomeCapacity)
		}
		if len(fleet) > 0 {
			homes[p].OnConfirm(func(c homeserver.Confirmed) {
				world.After(0, func() {
					for _, rep := range fleet {
						if err := rep.ApplyBatch([]homeserver.Confirmed{c}); err != nil {
							panic(fmt.Sprintf("simrun: replica apply: %v", err))
						}
					}
				})
			})
		}
	}

	// Admission-instrument mirrors, registered eagerly (like
	// homeserver.SetObs does) so the snapshot's shape matches /v1/metrics.
	queueDepth := reg.Gauge(obs.MHomeQueueDepth)
	waitQ := reg.Histogram(obs.MHomeAdmissionWait, obs.L(obs.LKind, obs.KindQuery))
	waitU := reg.Histogram(obs.MHomeAdmissionWait, obs.L(obs.LKind, obs.KindUpdate))

	// The shard router, in Affinity mode: the same ownership map, pruned
	// fan-out plan and membership changes the HTTP router uses, so the
	// simulated topology is the deployed one. Its backends carry only the
	// node caches, for warm handoff: requests run on virtual time through
	// the node pipelines below, routed by the router's planner, so the
	// router's synchronous Query and Update are never called here.
	var router *shard.Router
	var planner *shard.Planner
	if cfg.Affinity {
		backends := make([]shard.Backend, cfg.Nodes)
		for i := range backends {
			backends[i] = shard.PipeBackend{Buckets: nodes[i].Cache}
		}
		router = shard.NewRouter(analysis, backends, nil)
		planner = router.Planner()
	}

	// The adversary's-eye audit, shared by every node pipeline: the
	// observer stands at the node trust boundary, and an adversary who
	// controls the DSSP sees all nodes at once.
	var audit *leakage.Observer
	if cfg.Leakage {
		audit = leakage.NewObserver("node", clock)
	}

	// One pipeline per node — the same pathway every other deployment
	// routes through — over a virtual-time transport. The pipes slice is
	// shared with every transport before it is filled: fan-out only runs
	// once the world does, when all pipelines exist. buildNode also serves
	// joins mid-run: a joining node's slot was preallocated, so filling it
	// is visible to every transport holding the slice.
	pipes := make([]*pipeline.Pipeline, maxNodes)
	buildNode := func(i int) {
		nodeCPUs[i] = sim.NewServer(&world, cfg.Costs.DSSPCapacity)
		nodeTracer := obs.NewTracer(reg, clock).
			SetIdentity(obs.ProcNode, strconv.Itoa(i)).SetStore(store)
		// One virtual-time transport per home partition, with a backend
		// per replica behind it, composed by the same tier wiring the
		// deployed topologies use.
		parts := make([]pipeline.TierPart, nParts)
		for p := range parts {
			parts[p].Primary = &simTransport{
				world: &world, reg: reg, tracer: homeTracer, codec: codec,
				home: homes[p], homeCPU: homeCPUs[p], toHome: toHome, fromHome: fromHome,
				costs: cfg.Costs, network: cfg.Network, pipes: pipes, self: i, res: res,
				planner:    planner,
				queueDepth: queueDepth, waitQ: waitQ, waitU: waitU,
			}
			for k, rep := range reps[p] {
				parts[p].Replicas = append(parts[p].Replicas, pipeline.ReplicaEndpoint{Name: rep.Name(), Backend: &simReplicaBackend{
					world: &world, rep: rep, cpu: repCPUs[p][k],
					toHome: toHome, fromHome: fromHome, costs: cfg.Costs, res: res,
				}})
			}
		}
		transport, fresh := pipeline.NewTierTransport(parts, reg)
		popts := pipeline.Options{
			MonitorInterval: cfg.MonitorInterval,
			After:           func(d time.Duration, fn func()) { world.After(d, fn) },
			Fresh:           fresh,
		}
		if audit != nil {
			popts.Leakage = audit
		}
		pipes[i] = pipeline.New(nodes[i], transport, nodeTracer, popts)
	}
	for i := 0; i < cfg.Nodes; i++ {
		buildNode(i)
	}

	// Fleet events, on virtual time, through the router's own Join and
	// Leave: warm handoffs stream sealed entries between node caches and
	// the epoch flips only after the copies land, so a migrated entry is
	// serving the moment its new owner first gets asked. A joining node is
	// filed under the ID the router mints.
	for _, ev := range cfg.Fleet {
		ev := ev
		world.After(ev.At, func() {
			var rep *shard.MigrationReport
			var err error
			if ev.Kind == "join" {
				node := dssp.NewNode(app, analysis, cacheOpts)
				if rep, err = router.Join(context.Background(), shard.PipeBackend{Buckets: node.Cache}, ev.Warm); err == nil {
					nodes[rep.Node] = node
					buildNode(rep.Node)
				}
			} else {
				rep, err = router.Leave(context.Background(), ev.Node, ev.Kind == "leave" && ev.Warm)
			}
			if err != nil {
				panic(fmt.Sprintf("simrun: fleet %s: %v", ev.Kind, err))
			}
			res.MigratedEntries += rep.Entries
		})
	}

	// clientDelay models the per-client duplex access link (no cross-
	// client contention: each client has its own link, §5.2).
	clientDelay := func(size int, fn func()) {
		d := cfg.Network.ClientLatency
		if cfg.Network.ClientBitsPS > 0 {
			d += time.Duration(float64(size) / (cfg.Network.ClientBitsPS / 8) * float64(time.Second))
		}
		world.After(d, fn)
	}

	// runOp performs one DB operation against a node and calls done at
	// the client when the op's response arrives. The emulated client
	// seals and opens (trusted-side stages under the true template ID);
	// everything between rides the node's shared pipeline, which records
	// the node-side stages under whatever the sealed message reveals.
	// Sealing happens up front (it costs no virtual time and consumes no
	// simulation randomness) because in Affinity mode the sealed form
	// decides the node: the owner for queries, the exec node for updates
	// — exactly how the shard router steers. Without affinity the op
	// stays on the client's round-robin node.
	runOp := func(ni int, op workload.Op, done func()) {
		if op.Template.Kind == template.KQuery {
			sq, err := client.SealQuery(op.Template, op.Params)
			if err != nil {
				panic(err)
			}
			if planner != nil {
				ni = planner.NoteQuery(sq.Head())
			}
			clientDelay(cfg.Costs.RequestBytes, func() {
				nodeCPUs[ni].Submit(cfg.Costs.DSSPOpCost, func() {
					pipes[ni].Query(context.Background(), sq, func(reply pipeline.QueryReply, err error) {
						if err != nil {
							panic(err)
						}
						res.Ops++
						clientDelay(reply.Result.Size(), func() {
							if _, err := client.Open(op.Template, sq, reply.Result, reply.Hit); err != nil {
								panic(fmt.Sprintf("simrun: open %s%v: %v", op.Template.ID, op.Params, err))
							}
							done()
						})
					})
				})
			})
			return
		}
		// Update: route to the home server; the DSSP monitors the
		// completed update and invalidates (Figure 2).
		su, err := client.SealUpdate(op.Template, op.Params)
		if err != nil {
			panic(err)
		}
		if planner != nil {
			ni = planner.ExecNode(su.Head())
		}
		clientDelay(cfg.Costs.RequestBytes, func() {
			nodeCPUs[ni].Submit(cfg.Costs.DSSPOpCost, func() {
				pipes[ni].Update(context.Background(), su, func(reply pipeline.UpdateReply, err error) {
					if err != nil {
						panic(fmt.Sprintf("update %s%v: %v", op.Template.ID, op.Params, err))
					}
					res.Ops++
					res.Invalidations += reply.Invalidated
					clientDelay(64, done)
				})
			})
		})
	}

	// Each user: think, request a page (its ops run sequentially plus one
	// page-execution charge at the DSSP), repeat. Users stick to one node
	// (CDNs route clients to their nearest node).
	var startUser func(ni int, s workload.Session)
	startUser = func(ni int, s workload.Session) {
		think := time.Duration(rng.ExpFloat64() * float64(cfg.ThinkMean))
		world.After(think, func() {
			ops := s.NextPage()
			pageStart := world.Now()
			var step func(i int)
			step = func(i int) {
				if i == len(ops) {
					nodeCPUs[ni].Submit(cfg.Costs.DSSPPageCost, func() {
						if pageStart >= cfg.Warmup {
							res.Response.Add(world.Now() - pageStart)
							res.Pages++
						}
						startUser(ni, s)
					})
					return
				}
				runOp(ni, ops[i], func() { step(i + 1) })
			}
			step(0)
		})
	}
	for i := 0; i < cfg.Users; i++ {
		startUser(i%cfg.Nodes, cfg.Benchmark.NewSession(rng))
	}

	world.Run(cfg.Duration)

	for _, n := range nodes {
		if n == nil {
			continue // preallocated slot whose join never fired
		}
		st := n.Cache.Stats()
		res.PerNode = append(res.PerNode, st)
		res.Cache.Hits += st.Hits
		res.Cache.Misses += st.Misses
		res.Cache.Stores += st.Stores
		res.Cache.Invalidations += st.Invalidations
		res.Cache.Evictions += st.Evictions
		res.Cache.UpdatesSeen += st.UpdatesSeen
		res.Cache.BucketsVisited += st.BucketsVisited
		res.Cache.BucketsSkipped += st.BucketsSkipped
		res.Cache.BucketWalks += st.BucketWalks
	}
	if t := res.Cache.Hits + res.Cache.Misses; t > 0 {
		res.HitRate = float64(res.Cache.Hits) / float64(t)
	}
	elapsed := world.Now()
	if elapsed > 0 {
		var busy time.Duration
		for _, cpu := range homeCPUs {
			busy += cpu.BusyTime()
		}
		res.HomeBusyFrac = float64(busy) / float64(elapsed*time.Duration(cfg.Costs.HomeCapacity)*time.Duration(nParts))
	}
	res.Metrics = reg.Snapshot()
	res.Traces = store.All()
	res.Decisions = nodes[0].Cache.Decisions()
	res.CacheDump = nodes[0].Cache.Dump()
	if audit != nil {
		rep := audit.Report()
		res.Leakage = &rep
	}
	return res, nil
}

// UniformExposures assigns one exposure level to every template (capped at
// stmt for updates): the coarse-grain configurations of Figure 8.
func UniformExposures(app *template.App, e template.Exposure) map[string]template.Exposure {
	m := make(map[string]template.Exposure, len(app.Queries)+len(app.Updates))
	for _, q := range app.Queries {
		m[q.ID] = e
	}
	for _, u := range app.Updates {
		eu := e
		if eu > template.ExpStmt {
			eu = template.ExpStmt
		}
		m[u.ID] = eu
	}
	return m
}

// MaxUsers measures scalability: the largest number of concurrent users
// (up to maxUsers) for which the run meets the SLA, and that trial's
// Result — the run at the operating point, nil when even one user misses
// the SLA. cfg.Users is ignored.
func MaxUsers(cfg Config, sla metrics.SLA, maxUsers int) (int, *Result, error) {
	var trialErr error
	// The search only ever raises its answer to a trial that met the SLA,
	// so the answer's run is the passing trial with the most users.
	var at *Result
	n := metrics.SearchMaxUsers(maxUsers, func(users int) bool {
		if trialErr != nil {
			return false
		}
		c := cfg
		c.Users = users
		r, err := Simulate(c)
		if err != nil {
			trialErr = err
			return false
		}
		met := sla.Met(&r.Response)
		if met && (at == nil || users > at.Users) {
			at = r
		}
		return met
	})
	return n, at, trialErr
}
