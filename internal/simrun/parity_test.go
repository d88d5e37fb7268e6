package simrun_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
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
	"dssp/internal/obs"
	"dssp/internal/simrun"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
	"dssp/internal/workload"
)

// scriptBench is a deterministic toystore workload: every session
// alternates a read page [Q1("bear"), Q2(1), Q2(1)] with a write page
// [U1(1)], so hits, misses, stores, and invalidations all occur on a
// fixed schedule in whatever runtime executes it.
type scriptBench struct{ app *template.App }

func (b scriptBench) Name() string                             { return "script" }
func (b scriptBench) App() *template.App                       { return b.app }
func (b scriptBench) Compulsory() map[string]template.Exposure { return nil }

func (b scriptBench) Populate(db *storage.Database, rng *rand.Rand) error {
	rows := []struct {
		id   int64
		name string
		qty  int64
	}{{1, "bear", 10}, {2, "truck", 3}}
	for _, r := range rows {
		if err := db.Insert("toys", storage.Row{sqlparse.IntVal(r.id), sqlparse.StringVal(r.name), sqlparse.IntVal(r.qty)}); err != nil {
			return err
		}
	}
	return nil
}

func (b scriptBench) NewSession(rng *rand.Rand) workload.Session {
	return &scriptSession{app: b.app}
}

type scriptSession struct {
	app *template.App
	i   int
}

func (s *scriptSession) NextPage() []workload.Op {
	s.i++
	if s.i%2 == 1 {
		return []workload.Op{
			{Template: s.app.Query("Q1"), Params: []sqlparse.Value{sqlparse.StringVal("bear")}},
			{Template: s.app.Query("Q2"), Params: []sqlparse.Value{sqlparse.IntVal(1)}},
			{Template: s.app.Query("Q2"), Params: []sqlparse.Value{sqlparse.IntVal(1)}},
		}
	}
	return []workload.Op{
		{Template: s.app.Update("U1"), Params: []sqlparse.Value{sqlparse.IntVal(1)}},
	}
}

// TestMetricShapeParityWithHTTP is the tentpole acceptance check: a
// simulated run and a real HTTP deployment executing the same scripted
// workload must produce metric snapshots with identical metric identities
// (names + label sets). Values differ — virtual vs wall time, different
// page counts — but the shape an operator scrapes is the same.
func TestMetricShapeParityWithHTTP(t *testing.T) {
	bench := scriptBench{app: apps.Toystore()}
	exps := map[string]template.Exposure{"Q1": template.ExpBlind}

	// Simulated run: one user, short think time, enough virtual time for
	// several read/write cycles.
	cfg := simrun.DefaultConfig(bench, 1)
	cfg.Exposures = exps
	cfg.Duration = 30 * time.Second
	cfg.ThinkMean = time.Millisecond
	simRes, err := simrun.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if simRes.HomeUpdates < 3 {
		t.Fatalf("sim completed only %d updates; script did not cycle", simRes.HomeUpdates)
	}

	// HTTP run: same templates, same exposures, same op sequence, three
	// full read/write cycles.
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), exps)
	db := storage.NewDatabase(app.Schema)
	if err := bench.Populate(db, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	home := homeserver.New(db, app, codec)
	homeSrv := httptest.NewServer(httpapi.HomeHandler(home))
	defer homeSrv.Close()
	node := dssp.NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{})
	ns := httpapi.NewNodeServerWithOptions(node, homeSrv.URL, homeSrv.Client(), httpapi.NodeOptions{})
	nodeSrv := httptest.NewServer(ns.Handler())
	defer nodeSrv.Close()
	client := httpapi.NewClient(codec, nodeSrv.URL, nodeSrv.Client())
	client.Tracer = obs.NewTracer(obs.NewRegistry(), obs.WallClock())

	session := bench.NewSession(nil)
	for page := 0; page < 6; page++ {
		for _, op := range session.NextPage() {
			params := make([]interface{}, len(op.Params))
			for i, v := range op.Params {
				if v.Kind == sqlparse.KindString {
					params[i] = v.Str
				} else {
					params[i] = v.Int()
				}
			}
			if op.Template.Kind == template.KQuery {
				if _, err := client.Query(context.Background(), op.Template, params...); err != nil {
					t.Fatal(err)
				}
			} else if _, _, err := client.Update(context.Background(), op.Template, params...); err != nil {
				t.Fatal(err)
			}
		}
	}

	httpSnap := obs.Merge(
		client.Tracer.Registry().Snapshot(),
		ns.Reg.Snapshot(),
		home.Obs().Snapshot(),
	)

	simIDs := metricIDs(simRes.Metrics)
	httpIDs := metricIDs(httpSnap)
	for _, id := range simIDs {
		if !contains(httpIDs, id) {
			t.Errorf("sim metric %s missing from HTTP deployment", id)
		}
	}
	for _, id := range httpIDs {
		if !contains(simIDs, id) {
			t.Errorf("HTTP metric %s missing from simulator", id)
		}
	}
}

func metricIDs(s obs.Snapshot) []string {
	ids := make([]string, 0, len(s.Metrics))
	for _, m := range s.Metrics {
		ids = append(ids, m.ID())
	}
	sort.Strings(ids)
	return ids
}

func contains(ids []string, id string) bool {
	i := sort.SearchStrings(ids, id)
	return i < len(ids) && ids[i] == id
}
