package pipeline_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/httpapi"
	"dssp/internal/shard"
	"dssp/internal/simrun"
	"dssp/internal/wire"
)

// The replicated home tier must be invisible to everything downstream of
// the transport: a deployment serving misses from K read replicas has to
// leave byte-identical decision logs and cache dumps to the single-home
// deployment, because replicas replay the primary's confirmed stream into
// databases that started identical — and the deterministic sealing makes
// equal database states produce equal sealed results.

// runDirectReplicated is runDirect with the trusted tier scaled out to
// two in-process read replicas behind the client's pipeline.
func runDirectReplicated(t *testing.T) adapterResult {
	t.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	_, reps, tier := inprocTier(t, app, codec, seedParityToys, 1, 2)
	node := dssp.NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{})
	runScript(t, "direct-replicated", app, &dssp.Client{Codec: codec, Front: tierFront(node, tier)})
	var served int
	for _, r := range reps[0] {
		served += r.QueriesServed()
	}
	if served == 0 {
		t.Error("direct-replicated: no miss was served by a replica; the replica set is not in the path")
	}
	return adapterResult{normalize(node.Cache.Decisions()), node.Cache.Dump()}
}

// runHTTPReplicated is runHTTP with the home tier as three processes: a
// primary fronting the confirmed-update hub and two replica servers the
// node spreads misses across.
func runHTTPReplicated(t *testing.T) adapterResult {
	t.Helper()
	app := apps.Toystore()
	f := startParityFleet(t, httpapi.Spec{App: app, Nodes: 1, Replicas: 2}, seedParityToys)
	ctx := context.Background()
	for _, op := range parityScript {
		if op.query {
			if _, err := f.Client.Query(ctx, app.Query(op.template), op.param); err != nil {
				t.Fatalf("http-replicated %s(%v): %v", op.template, op.param, err)
			}
		} else if _, _, err := f.Client.Update(ctx, app.Update(op.template), op.param); err != nil {
			t.Fatalf("http-replicated %s(%v): %v", op.template, op.param, err)
		}
		// The hub pushes asynchronously; drain between ops so every replica
		// reaches the confirmed state before the next statement, making the
		// run deterministic (a lagging replica would merely be bypassed to
		// the primary — same bytes — but then replicas would never serve).
		drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		err := f.Hubs[0].Drain(drainCtx)
		cancel()
		if err != nil {
			t.Fatalf("hub drain: %v", err)
		}
	}
	var served int
	for _, r := range f.Replicas[0] {
		served += r.QueriesServed()
	}
	if served == 0 {
		t.Error("http-replicated: no miss was served by a replica; the replica set is not in the path")
	}
	return adapterResult{normalize(f.Nodes[0].Cache.Decisions()), f.Nodes[0].Cache.Dump()}
}

// runSimReplicated is the simulator run with a two-replica home tier in
// virtual time.
func runSimReplicated(t *testing.T) adapterResult {
	t.Helper()
	cfg := simrun.DefaultConfig(&scriptBench{app: apps.Toystore()}, 1)
	cfg.Duration = 30 * time.Second
	cfg.ThinkMean = time.Millisecond
	cfg.HomeReplicas = 2
	r, err := simrun.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.ReplicaQueries == 0 {
		t.Error("sim-replicated: no miss was served by a replica; the replica set is not in the path")
	}
	return adapterResult{normalize(r.Decisions), r.CacheDump}
}

func TestAdapterParityReplicatedHome(t *testing.T) {
	ref := runDirect(t)
	adapters := []struct {
		name string
		run  func(*testing.T) adapterResult
	}{
		{"direct-replicated", runDirectReplicated},
		{"http-replicated", runHTTPReplicated},
		{"sim-replicated", runSimReplicated},
	}
	for _, a := range adapters {
		got := a.run(t)
		if !reflect.DeepEqual(got.decisions, ref.decisions) {
			t.Errorf("%s decision log diverges from single-home direct:\n got: %+v\nwant: %+v",
				a.name, got.decisions, ref.decisions)
		}
		if !reflect.DeepEqual(got.dump, ref.dump) {
			t.Errorf("%s final cache diverges from single-home direct:\n got: %v\nwant: %v",
				a.name, got.dump, ref.dump)
		}
	}
}

// runShardedReplicatedInproc is runShardedInproc with every fleet node's
// transport wired to a replicated tier over the same two replicas — the
// scaled-out deployments composed: sharded cache tier over replicated
// trusted tier.
func runShardedReplicatedInproc(t *testing.T) []nodeState {
	t.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	_, _, tier := inprocTier(t, app, codec, seedParityToys, 1, 2)
	analysis := core.Analyze(app, core.DefaultOptions())

	nodes := make([]*dssp.Node, shardedFleet)
	backends := make([]shard.Backend, shardedFleet)
	for i := range nodes {
		nodes[i] = dssp.NewNode(app, analysis, cache.Options{})
		backends[i] = tierFront(nodes[i], tier)
	}
	router := shard.NewRouter(analysis, backends, nil, shard.Options{})
	runScript(t, "sharded-replicated", app, &dssp.Client{Codec: codec, Front: router})

	out := make([]nodeState, shardedFleet)
	for i, n := range nodes {
		out[i] = nodeState{normalize(n.Cache.Decisions()), n.Cache.Dump(), n.Cache.Stats()}
	}
	return out
}

func TestShardedAdapterParityReplicatedHome(t *testing.T) {
	ref := runDirect(t)
	assertShardedParity(t, "inproc-replicated", ref, runShardedReplicatedInproc(t))
}
