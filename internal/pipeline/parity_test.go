package pipeline_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	hometier "dssp/internal/home"
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

// The three deployment adapters — in-process client, HTTP node, and
// virtual-time simulator — are thin shells over one pipeline, each
// reaching its home tier through pipeline.NewTierTransport (inprocTier is
// the in-process substrate's way in for the replicated and partitioned
// suites). Running the same seeded toystore script through each must leave
// behind identical invalidation-decision logs and identical final cache
// contents; any divergence means an adapter grew its own pathway logic
// again.

type scriptOp struct {
	query    bool
	template string
	param    interface{}
}

// The script exercises miss-store, hit, cross-template invalidation, and
// re-fetch after invalidation. Full exposure keeps cache keys plaintext,
// so dumps are comparable across stacks with different keyrings.
var parityScript = []scriptOp{
	{true, "Q1", "bear"}, // miss, store
	{true, "Q2", 1},      // miss, store
	{true, "Q2", 1},      // hit
	{false, "U1", 1},     // delete toy 1: invalidates both entries
	{true, "Q1", "bear"}, // miss again (toy 3 remains), store
	{true, "Q2", 5},      // miss, store
}

func seedParityToys(t *testing.T, db *storage.Database) {
	t.Helper()
	rows := []struct {
		id   int64
		name string
		qty  int64
	}{{1, "bear", 10}, {2, "truck", 3}, {3, "bear", 4}, {5, "kite", 25}}
	for _, r := range rows {
		if err := db.Insert("toys", storage.Row{
			sqlparse.IntVal(r.id), sqlparse.StringVal(r.name), sqlparse.IntVal(r.qty),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// normalize blanks the per-request trace IDs, which legitimately differ
// across stacks.
func normalize(ds []cache.Decision) []cache.Decision {
	out := make([]cache.Decision, len(ds))
	for i, d := range ds {
		d.Trace = ""
		out[i] = d
	}
	return out
}

type adapterResult struct {
	decisions []cache.Decision
	dump      []string
}

// inprocTier builds an in-process trusted tier the way every deployment
// does — home.NewTier over same-seed databases — and returns it with the
// in-process substrate's endpoints (home.TierParts, which also starts each
// primary feeding its replicas).
func inprocTier(t *testing.T, app *template.App, codec *wire.Codec, seed func(*testing.T, *storage.Database), parts, replicas int) ([]*homeserver.Server, [][]*hometier.Replica, []pipeline.TierPart) {
	t.Helper()
	primaries, reps, err := hometier.NewTier(app, codec, func() (*storage.Database, error) {
		db := storage.NewDatabase(app.Schema)
		seed(t, db)
		return db, nil
	}, parts, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return primaries, reps, hometier.TierParts(primaries, reps)
}

// tierFront is one node's pipeline over the one node→home wiring, as the
// Front a client or a router reaches it through.
func tierFront(node *dssp.Node, tier []pipeline.TierPart) shard.PipeBackend {
	transport, fresh := pipeline.NewTierTransport(tier, nil)
	return shard.PipeBackend{Pipe: pipeline.New(node, transport, nil, pipeline.Options{Fresh: fresh})}
}

func runDirect(t *testing.T) adapterResult {
	t.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	db := storage.NewDatabase(app.Schema)
	seedParityToys(t, db)
	node := dssp.NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{})
	home := homeserver.New(db, app, codec)
	runScript(t, "direct", app, &dssp.Client{Codec: codec, Node: node, Home: home})
	return adapterResult{normalize(node.Cache.Decisions()), node.Cache.Dump()}
}

// runScript replays the parity script through one trusted client, over
// whatever Front it has: its own node's pipeline, a tier pipeline, or a
// router.
func runScript(t *testing.T, name string, app *template.App, client *dssp.Client) {
	t.Helper()
	for _, op := range parityScript {
		if op.query {
			if _, err := client.Query(app.Query(op.template), op.param); err != nil {
				t.Fatalf("%s %s(%v): %v", name, op.template, op.param, err)
			}
		} else if _, _, err := client.Update(app.Update(op.template), op.param); err != nil {
			t.Fatalf("%s %s(%v): %v", name, op.template, op.param, err)
		}
	}
}

func runHTTP(t *testing.T) adapterResult {
	t.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	db := storage.NewDatabase(app.Schema)
	seedParityToys(t, db)
	home := homeserver.New(db, app, codec)
	homeSrv := httptest.NewServer(httpapi.HomeHandler(home))
	defer homeSrv.Close()
	node := dssp.NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{})
	nodeSrv := httptest.NewServer(httpapi.NewNodeServerWithOptions(node, homeSrv.URL, homeSrv.Client(), httpapi.NodeOptions{}).Handler())
	defer nodeSrv.Close()
	client := httpapi.NewClient(codec, nodeSrv.URL, nodeSrv.Client())
	ctx := context.Background()
	for _, op := range parityScript {
		if op.query {
			if _, err := client.Query(ctx, app.Query(op.template), op.param); err != nil {
				t.Fatalf("http %s(%v): %v", op.template, op.param, err)
			}
		} else if _, _, err := client.Update(ctx, app.Update(op.template), op.param); err != nil {
			t.Fatalf("http %s(%v): %v", op.template, op.param, err)
		}
	}
	return adapterResult{normalize(node.Cache.Decisions()), node.Cache.Dump()}
}

// scriptBench replays the parity script as a one-user simulated workload:
// a single page holding every op, then empty pages.
type scriptBench struct{ app *template.App }

func (b *scriptBench) Name() string                               { return "parity-script" }
func (b *scriptBench) App() *template.App                         { return b.app }
func (b *scriptBench) Compulsory() map[string]template.Exposure   { return nil }
func (b *scriptBench) NewSession(rng *rand.Rand) workload.Session { return &scriptSession{b.app, 0} }

func (b *scriptBench) Populate(db *storage.Database, rng *rand.Rand) error {
	rows := []struct {
		id   int64
		name string
		qty  int64
	}{{1, "bear", 10}, {2, "truck", 3}, {3, "bear", 4}, {5, "kite", 25}}
	for _, r := range rows {
		if err := db.Insert("toys", storage.Row{
			sqlparse.IntVal(r.id), sqlparse.StringVal(r.name), sqlparse.IntVal(r.qty),
		}); err != nil {
			return err
		}
	}
	return nil
}

type scriptSession struct {
	app  *template.App
	page int
}

func (s *scriptSession) NextPage() []workload.Op {
	s.page++
	if s.page > 1 {
		return nil
	}
	var ops []workload.Op
	for _, op := range parityScript {
		var t *template.Template
		if op.query {
			t = s.app.Query(op.template)
		} else {
			t = s.app.Update(op.template)
		}
		var v sqlparse.Value
		switch p := op.param.(type) {
		case int:
			v = sqlparse.IntVal(int64(p))
		case string:
			v = sqlparse.StringVal(p)
		}
		ops = append(ops, workload.Op{Template: t, Params: []sqlparse.Value{v}})
	}
	return ops
}

func runSim(t *testing.T) adapterResult {
	t.Helper()
	cfg := simrun.DefaultConfig(&scriptBench{app: apps.Toystore()}, 1)
	cfg.Duration = 30 * time.Second
	cfg.ThinkMean = time.Millisecond
	r, err := simrun.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return adapterResult{normalize(r.Decisions), r.CacheDump}
}

func TestAdapterParity(t *testing.T) {
	adapters := []struct {
		name string
		run  func(*testing.T) adapterResult
	}{
		{"direct", runDirect},
		{"http", runHTTP},
		{"sim", runSim},
	}
	ref := adapters[0].run(t)
	if len(ref.decisions) == 0 {
		t.Fatal("reference adapter recorded no invalidation decisions; script is not exercising the pathway")
	}
	if len(ref.dump) == 0 {
		t.Fatal("reference adapter finished with an empty cache; script is not exercising the pathway")
	}
	for _, a := range adapters[1:] {
		got := a.run(t)
		if !reflect.DeepEqual(got.decisions, ref.decisions) {
			t.Errorf("%s decision log diverges from %s:\n got: %+v\nwant: %+v",
				a.name, adapters[0].name, got.decisions, ref.decisions)
		}
		if !reflect.DeepEqual(got.dump, ref.dump) {
			t.Errorf("%s final cache diverges from %s:\n got: %v\nwant: %v",
				a.name, adapters[0].name, got.dump, ref.dump)
		}
	}
}
