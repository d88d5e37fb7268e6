package pipeline_test

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/homeserver"
	"dssp/internal/httpapi"
	"dssp/internal/pipeline"
	"dssp/internal/shard"
	"dssp/internal/simrun"
	"dssp/internal/storage"
	"dssp/internal/wire"
)

// The sharded deployments must be indistinguishable from the single-node
// pipeline: template affinity puts every template's bucket on exactly one
// node, and decisions are only recorded against non-empty buckets, so
// each node's decision log must equal the single-node log filtered to the
// templates that node owns, and the union of the nodes' cache dumps must
// equal the single-node dump. Any divergence means the router invalidated
// too much, too little, or in the wrong order.

const shardedFleet = 3

// nodeState is one fleet node's observable cache state after a run.
type nodeState struct {
	decisions []cache.Decision
	dump      []string
	stats     cache.Stats
}

// runShardedInproc routes the script through a shard router over an
// in-process fleet: each node has its own pipeline and direct transport
// to one shared home server — the shard.PipeBackend wiring.
func runShardedInproc(t *testing.T) []nodeState {
	t.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	db := storage.NewDatabase(app.Schema)
	seedParityToys(t, db)
	home := homeserver.New(db, app, codec)
	analysis := core.Analyze(app, core.DefaultOptions())

	nodes := make([]*dssp.Node, shardedFleet)
	backends := make([]shard.Backend, shardedFleet)
	for i := range nodes {
		nodes[i] = dssp.NewNode(app, analysis, cache.Options{})
		backends[i] = shard.PipeBackend{
			Pipe: pipeline.New(nodes[i], pipeline.NewDirectTransport(home), nil, pipeline.Options{}),
		}
	}
	router := shard.NewRouter(analysis, backends, nil)
	runScript(t, "sharded", app, &dssp.Client{Codec: codec, Front: router})

	out := make([]nodeState, shardedFleet)
	for i, n := range nodes {
		out[i] = nodeState{normalize(n.Cache.Decisions()), n.Cache.Dump(), n.Cache.Stats()}
	}
	return out
}

// startParityFleet starts spec's topology over spec.App (the toystore)
// through the fleet assembler, every database seeded by seed. The parity suites are
// the assembler's oracle: byte-identical decision logs and cache dumps
// against the direct pipeline prove Start wires the same system the
// hand-built references do.
func startParityFleet(t *testing.T, spec httpapi.Spec, seed func(*testing.T, *storage.Database)) *httpapi.Fleet {
	t.Helper()
	spec.Codec = wire.NewCodec(spec.App, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	spec.NewDB = func() (*storage.Database, error) {
		db := storage.NewDatabase(spec.App.Schema)
		seed(t, db)
		return db, nil
	}
	f, err := httpapi.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := f.Close(); err != nil {
			t.Errorf("fleet close: %v", err)
		}
	})
	return f
}

// runShardedHTTP routes the script through the full HTTP deployment:
// dssprouter's RouterServer fronting NodeServer processes, a home server
// behind them, and the standard client against the router — which speaks
// the node API, so the client is the unmodified single-node one.
func runShardedHTTP(t *testing.T) []nodeState {
	t.Helper()
	app := apps.Toystore()
	f := startParityFleet(t, httpapi.Spec{App: app, Nodes: shardedFleet, Router: true}, seedParityToys)
	ctx := context.Background()
	for _, op := range parityScript {
		if op.query {
			if _, err := f.Client.Query(ctx, app.Query(op.template), op.param); err != nil {
				t.Fatalf("routed http %s(%v): %v", op.template, op.param, err)
			}
		} else if _, _, err := f.Client.Update(ctx, app.Update(op.template), op.param); err != nil {
			t.Fatalf("routed http %s(%v): %v", op.template, op.param, err)
		}
	}

	out := make([]nodeState, shardedFleet)
	for i, n := range f.Nodes {
		out[i] = nodeState{normalize(n.Cache.Decisions()), n.Cache.Dump(), n.Cache.Stats()}
	}
	return out
}

// ownedDecisions filters the single-node reference log down to the
// templates one fleet node owns.
func ownedDecisions(ref []cache.Decision, owners *shard.Planner, node int) []cache.Decision {
	out := []cache.Decision{}
	for _, d := range ref {
		if owners.OwnerOfTemplate(d.QueryTemplate) == node {
			out = append(out, d)
		}
	}
	return out
}

func assertShardedParity(t *testing.T, name string, ref adapterResult, fleet []nodeState) {
	t.Helper()
	owners := shard.NewPlanner(len(fleet), core.Analyze(apps.Toystore(), core.DefaultOptions()))

	var merged []string
	for _, n := range fleet {
		merged = append(merged, n.dump...)
	}
	sort.Strings(merged)
	if !reflect.DeepEqual(merged, ref.dump) {
		t.Errorf("%s: merged cache dump diverges from single-node:\n got: %v\nwant: %v", name, merged, ref.dump)
	}

	for i, n := range fleet {
		want := ownedDecisions(ref.decisions, owners, i)
		got := n.decisions
		if got == nil {
			got = []cache.Decision{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s node %d: decision log diverges from the single-node log filtered to its templates:\n got: %+v\nwant: %+v",
				name, i, got, want)
		}
	}
}

func TestShardedAdapterParity(t *testing.T) {
	ref := runDirect(t)
	assertShardedParity(t, "inproc", ref, runShardedInproc(t))
	assertShardedParity(t, "http", ref, runShardedHTTP(t))
}

// The simulator's Affinity mode and the HTTP router must agree node for
// node: same ownership map, same exec-node choice, same pruned fan-out —
// so replaying the same script leaves identical per-node cache counters.
func TestSimHTTPPerNodeParity(t *testing.T) {
	cfg := simrun.DefaultConfig(&scriptBench{app: apps.Toystore()}, 1)
	cfg.Duration = 30 * time.Second
	cfg.ThinkMean = time.Millisecond
	cfg.Nodes = shardedFleet
	cfg.Affinity = true
	r, err := simrun.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	httpFleet := runShardedHTTP(t)

	if len(r.PerNode) != len(httpFleet) {
		t.Fatalf("sim ran %d nodes, http ran %d", len(r.PerNode), len(httpFleet))
	}
	for i := range httpFleet {
		sim, http := r.PerNode[i], httpFleet[i].stats
		if sim.Hits != http.Hits || sim.Misses != http.Misses || sim.Stores != http.Stores ||
			sim.Invalidations != http.Invalidations {
			t.Errorf("node %d: sim hits/misses/stores/invalidations %d/%d/%d/%d, http %d/%d/%d/%d",
				i, sim.Hits, sim.Misses, sim.Stores, sim.Invalidations,
				http.Hits, http.Misses, http.Stores, http.Invalidations)
		}
	}

	// The script's one update must account for every non-exec node:
	// fanned out or proven skippable, nothing silently dropped.
	if got, want := r.FanoutMessages+r.FanoutSkipped, shardedFleet-1; got != want {
		t.Errorf("fan-out accounting: sent %d + skipped %d = %d, want %d",
			r.FanoutMessages, r.FanoutSkipped, got, want)
	}
}
