package pipeline_test

import (
	"context"
	"math/rand"
	"reflect"
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
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
	"dssp/internal/workload"
)

// The partitioned home tier must be invisible to everything downstream of
// the transport: splitting the toystore's two table groups — toys, and
// the FK-joined customers/credit_card pair — across two partition masters
// has to leave byte-identical decision logs and cache dumps to the
// single-partition deployment, in every adapter. Each partition serializes
// only its own group's updates, and no statement ever reads across the
// split (templates pin whole groups), so the merged observable behavior
// is the single master's.

type partitionOp struct {
	query    bool
	template string
	params   []interface{}
}

// partitionScript exercises both table groups, cross-group interleaving,
// and — the property worth the test — cross-partition isolation: U1 on
// partition 0 must not invalidate the Q3 entry owned by partition 1's
// group, and U2 on partition 1 must.
var partitionScript = []partitionOp{
	{true, "Q1", []interface{}{"bear"}},                // group 0: miss, store
	{true, "Q3", []interface{}{"90001"}},               // group 1: miss, store
	{true, "Q2", []interface{}{1}},                     // group 0: miss, store
	{true, "Q3", []interface{}{"90001"}},               // group 1: hit
	{false, "U1", []interface{}{1}},                    // partition 0: delete toy 1
	{true, "Q3", []interface{}{"90001"}},               // still a hit: U1 crossed no partition
	{false, "U2", []interface{}{4, "4000-4", "90001"}}, // partition 1: new card in 90001
	{true, "Q1", []interface{}{"bear"}},                // group 0: miss again (toy 3 remains)
	{true, "Q3", []interface{}{"90001"}},               // group 1: miss again, two rows now
	{true, "Q2", []interface{}{3}},                     // group 0: miss
}

// seedPartitionToystore seeds all three toystore relations: the toys of
// seedParityToys plus customers 1..4, the first two holding cards in
// distinct zips. Customer 4 is the U2 insert target.
func seedPartitionToystore(t *testing.T, db *storage.Database) {
	t.Helper()
	seedParityToys(t, db)
	iv, sv := sqlparse.IntVal, sqlparse.StringVal
	for c := int64(1); c <= 4; c++ {
		if err := db.Insert("customers", storage.Row{iv(c), sv("customer")}); err != nil {
			t.Fatal(err)
		}
	}
	for _, card := range []struct {
		cid         int64
		number, zip string
	}{{1, "4000-1", "90001"}, {2, "4000-2", "90002"}} {
		if err := db.Insert("credit_card", storage.Row{iv(card.cid), sv(card.number), sv(card.zip)}); err != nil {
			t.Fatal(err)
		}
	}
}

// drivePartitionScript replays partitionScript through one trusted
// client, over whatever Front it has.
func drivePartitionScript(t *testing.T, name string, app *template.App, client *dssp.Client) {
	t.Helper()
	for _, op := range partitionScript {
		if op.query {
			if _, err := client.Query(app.Query(op.template), op.params...); err != nil {
				t.Fatalf("%s %s(%v): %v", name, op.template, op.params, err)
			}
		} else if _, _, err := client.Update(app.Update(op.template), op.params...); err != nil {
			t.Fatalf("%s %s(%v): %v", name, op.template, op.params, err)
		}
	}
}

// runPartitionReference is the single-partition baseline: one master, one
// database, the plain direct client.
func runPartitionReference(t *testing.T) adapterResult {
	t.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	db := storage.NewDatabase(app.Schema)
	seedPartitionToystore(t, db)
	node := dssp.NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{})
	drivePartitionScript(t, "single-partition", app, &dssp.Client{Codec: codec, Node: node, Home: homeserver.New(db, app, codec)})
	return adapterResult{normalize(node.Cache.Decisions()), node.Cache.Dump()}
}

// runDirectPartitioned routes the in-process client through a two-master
// tier.
func runDirectPartitioned(t *testing.T) adapterResult {
	t.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	homes, _, tier := inprocTier(t, app, codec, seedPartitionToystore, 2, 0)
	node := dssp.NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{})
	drivePartitionScript(t, "direct-partitioned", app, &dssp.Client{Codec: codec, Front: tierFront(node, tier)})
	for p, h := range homes {
		if h.ConfirmedSeq() == 0 {
			t.Errorf("direct-partitioned: partition %d confirmed no update; the script is not spanning the split", p)
		}
	}
	return adapterResult{normalize(node.Cache.Decisions()), node.Cache.Dump()}
}

// runDirectPartitionedReplicated is runDirectPartitioned with each
// partition's misses spread over its own two read replicas — the
// scaled-out axes composed: partitioned masters, each replicated.
func runDirectPartitionedReplicated(t *testing.T) adapterResult {
	t.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	_, fleets, tier := inprocTier(t, app, codec, seedPartitionToystore, 2, 2)
	node := dssp.NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{})
	drivePartitionScript(t, "direct-partitioned-replicated", app, &dssp.Client{Codec: codec, Front: tierFront(node, tier)})

	for p, reps := range fleets {
		served := 0
		for _, r := range reps {
			served += r.QueriesServed()
		}
		if served == 0 {
			t.Errorf("direct-partitioned-replicated: no miss served by partition %d's replicas", p)
		}
	}
	return adapterResult{normalize(node.Cache.Decisions()), node.Cache.Dump()}
}

// runHTTPPartitioned runs the script against an HTTP node fronting two
// partition home processes, each armed with the misroute guard.
func runHTTPPartitioned(t *testing.T) adapterResult {
	t.Helper()
	app := apps.Toystore()
	f := startParityFleet(t, httpapi.Spec{App: app, Nodes: 1, Partitions: 2}, seedPartitionToystore)
	ctx := context.Background()
	for _, op := range partitionScript {
		if op.query {
			if _, err := f.Client.Query(ctx, app.Query(op.template), op.params...); err != nil {
				t.Fatalf("http-partitioned %s(%v): %v", op.template, op.params, err)
			}
		} else if _, _, err := f.Client.Update(ctx, app.Update(op.template), op.params...); err != nil {
			t.Fatalf("http-partitioned %s(%v): %v", op.template, op.params, err)
		}
	}
	for p, h := range f.Homes {
		if h.ConfirmedSeq() == 0 {
			t.Errorf("http-partitioned: partition %d confirmed no update; the script is not spanning the split", p)
		}
	}
	return adapterResult{normalize(f.Nodes[0].Cache.Decisions()), f.Nodes[0].Cache.Dump()}
}

// partitionBench replays partitionScript as a one-user simulated
// workload, seeding all three relations.
type partitionBench struct{ app *template.App }

func (b *partitionBench) Name() string                             { return "partition-script" }
func (b *partitionBench) App() *template.App                       { return b.app }
func (b *partitionBench) Compulsory() map[string]template.Exposure { return nil }
func (b *partitionBench) NewSession(rng *rand.Rand) workload.Session {
	return &partitionSession{b.app, 0}
}

func (b *partitionBench) Populate(db *storage.Database, rng *rand.Rand) error {
	iv, sv := sqlparse.IntVal, sqlparse.StringVal
	rows := []struct {
		id   int64
		name string
		qty  int64
	}{{1, "bear", 10}, {2, "truck", 3}, {3, "bear", 4}, {5, "kite", 25}}
	for _, r := range rows {
		if err := db.Insert("toys", storage.Row{iv(r.id), sv(r.name), iv(r.qty)}); err != nil {
			return err
		}
	}
	for c := int64(1); c <= 4; c++ {
		if err := db.Insert("customers", storage.Row{iv(c), sv("customer")}); err != nil {
			return err
		}
	}
	for _, card := range []struct {
		cid         int64
		number, zip string
	}{{1, "4000-1", "90001"}, {2, "4000-2", "90002"}} {
		if err := db.Insert("credit_card", storage.Row{iv(card.cid), sv(card.number), sv(card.zip)}); err != nil {
			return err
		}
	}
	return nil
}

type partitionSession struct {
	app  *template.App
	page int
}

func (s *partitionSession) NextPage() []workload.Op {
	s.page++
	if s.page > 1 {
		return nil
	}
	var ops []workload.Op
	for _, op := range partitionScript {
		var tpl *template.Template
		if op.query {
			tpl = s.app.Query(op.template)
		} else {
			tpl = s.app.Update(op.template)
		}
		vals, err := dssp.Params(op.params...)
		if err != nil {
			panic(err)
		}
		ops = append(ops, workload.Op{Template: tpl, Params: vals})
	}
	return ops
}

func runSimPartitionScript(t *testing.T, parts int) adapterResult {
	t.Helper()
	cfg := simrun.DefaultConfig(&partitionBench{app: apps.Toystore()}, 1)
	cfg.Duration = 30 * time.Second
	cfg.ThinkMean = time.Millisecond
	cfg.HomePartitions = parts
	r, err := simrun.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return adapterResult{normalize(r.Decisions), r.CacheDump}
}

// TestAdapterParityPartitionedHome is the partitioned counterpart of
// TestAdapterParity: every partitioned adapter — and the simulator at one
// partition, closing the loop — must match the single-partition direct
// reference byte for byte.
func TestAdapterParityPartitionedHome(t *testing.T) {
	ref := runPartitionReference(t)
	if len(ref.decisions) == 0 || len(ref.dump) == 0 {
		t.Fatal("reference adapter recorded no decisions or an empty cache; script is not exercising the pathway")
	}
	adapters := []struct {
		name string
		run  func(*testing.T) adapterResult
	}{
		{"direct-partitioned", runDirectPartitioned},
		{"direct-partitioned-replicated", runDirectPartitionedReplicated},
		{"http-partitioned", runHTTPPartitioned},
		{"sim-single", func(t *testing.T) adapterResult { return runSimPartitionScript(t, 1) }},
		{"sim-partitioned", func(t *testing.T) adapterResult { return runSimPartitionScript(t, 2) }},
	}
	for _, a := range adapters {
		got := a.run(t)
		if !reflect.DeepEqual(got.decisions, ref.decisions) {
			t.Errorf("%s decision log diverges from single-partition direct:\n got: %+v\nwant: %+v",
				a.name, got.decisions, ref.decisions)
		}
		if !reflect.DeepEqual(got.dump, ref.dump) {
			t.Errorf("%s final cache diverges from single-partition direct:\n got: %v\nwant: %v",
				a.name, got.dump, ref.dump)
		}
	}
}

// runShardedPartitionedInproc composes all three scale-out axes: a
// sharded cache fleet whose nodes each route through the tier wiring to
// the two partition masters.
func runShardedPartitionedInproc(t *testing.T) []nodeState {
	t.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	_, _, tier := inprocTier(t, app, codec, seedPartitionToystore, 2, 0)
	analysis := core.Analyze(app, core.DefaultOptions())

	nodes := make([]*dssp.Node, shardedFleet)
	backends := make([]shard.Backend, shardedFleet)
	for i := range nodes {
		nodes[i] = dssp.NewNode(app, analysis, cache.Options{})
		backends[i] = tierFront(nodes[i], tier)
	}
	router := shard.NewRouter(analysis, backends, nil)
	drivePartitionScript(t, "sharded-partitioned", app, &dssp.Client{Codec: codec, Front: router})

	out := make([]nodeState, shardedFleet)
	for i, n := range nodes {
		out[i] = nodeState{normalize(n.Cache.Decisions()), n.Cache.Dump(), n.Cache.Stats()}
	}
	return out
}

// runShardedSingleInproc is the single-partition sharded baseline driven
// by the same script, for the per-node comparison.
func runShardedSingleInproc(t *testing.T) []nodeState {
	t.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	db := storage.NewDatabase(app.Schema)
	seedPartitionToystore(t, db)
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
	drivePartitionScript(t, "sharded-single", app, &dssp.Client{Codec: codec, Front: router})

	out := make([]nodeState, shardedFleet)
	for i, n := range nodes {
		out[i] = nodeState{normalize(n.Cache.Decisions()), n.Cache.Dump(), n.Cache.Stats()}
	}
	return out
}

// TestShardedAdapterParityPartitionedHome checks the composed deployment
// node by node against the single-partition sharded fleet: partitioning
// the home tier must not change any fleet node's decisions or cache.
func TestShardedAdapterParityPartitionedHome(t *testing.T) {
	ref := runShardedSingleInproc(t)
	got := runShardedPartitionedInproc(t)
	for i := range ref {
		if !reflect.DeepEqual(got[i].decisions, ref[i].decisions) {
			t.Errorf("node %d: partitioned decision log diverges from single-partition:\n got: %+v\nwant: %+v",
				i, got[i].decisions, ref[i].decisions)
		}
		if !reflect.DeepEqual(got[i].dump, ref[i].dump) {
			t.Errorf("node %d: partitioned cache diverges from single-partition:\n got: %v\nwant: %v",
				i, got[i].dump, ref[i].dump)
		}
	}
}
