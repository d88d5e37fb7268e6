package httpapi

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/engine"
	"dssp/internal/homeserver"
	"dssp/internal/obs"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// stack spins up home server and node as real HTTP servers (httptest) and
// returns a sealed-protocol client plus the master database for ground
// truth.
func stack(t *testing.T, exps map[string]template.Exposure) (*Client, *storage.Database, func()) {
	t.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), exps)
	db := storage.NewDatabase(app.Schema)
	home := homeserver.New(db, app, codec)
	homeSrv := startServer(t, HomeHandler(home))

	node := dssp.NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{})
	nodeSrv := startServer(t, NewNodeServerWithOptions(node, homeSrv.URL, homeSrv.Client(), NodeOptions{}).Handler())

	client := NewClient(codec, nodeSrv.URL, nodeSrv.Client())
	return client, db, func() {}
}

func seedToys(t *testing.T, db *storage.Database) {
	t.Helper()
	rows := []struct {
		id   int64
		name string
		qty  int64
	}{{1, "bear", 10}, {2, "truck", 3}, {5, "kite", 25}}
	for _, r := range rows {
		if err := db.Insert("toys", storage.Row{sqlparse.IntVal(r.id), sqlparse.StringVal(r.name), sqlparse.IntVal(r.qty)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNetworkQueryUpdateFlow(t *testing.T) {
	client, db, done := stack(t, nil)
	defer done()
	seedToys(t, db)
	app := apps.Toystore()

	r, err := client.Query(context.Background(), app.Query("Q2"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome.Hit || r.Result.Row(0)[0].Int() != 25 {
		t.Fatalf("first query: %+v", r)
	}
	r, err = client.Query(context.Background(), app.Query("Q2"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Outcome.Hit {
		t.Error("second query should hit the node cache")
	}

	affected, invalidated, err := client.Update(context.Background(), app.Update("U1"), 5)
	if err != nil || affected != 1 || invalidated != 1 {
		t.Fatalf("update: affected=%d invalidated=%d err=%v", affected, invalidated, err)
	}
	r, err = client.Query(context.Background(), app.Query("Q2"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome.Hit || r.Result.Len() != 0 {
		t.Errorf("stale read after delete: %+v", r)
	}
}

func TestNetworkEncryptedResults(t *testing.T) {
	exps := map[string]template.Exposure{"Q2": template.ExpStmt}
	client, db, done := stack(t, exps)
	defer done()
	seedToys(t, db)
	app := apps.Toystore()

	r, err := client.Query(context.Background(), app.Query("Q2"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Result.Row(0)[0].Int() != 25 {
		t.Errorf("decrypted result wrong: %v", r.Result.Vals)
	}
	// The node's copy is ciphertext: fetch the raw cached entry via a
	// fresh query and check the Hit path still decrypts fine.
	r, err = client.Query(context.Background(), app.Query("Q2"), 5)
	if err != nil || !r.Outcome.Hit {
		t.Fatalf("hit=%v err=%v", r.Outcome.Hit, err)
	}
}

func TestNetworkConsistencyRandomWorkload(t *testing.T) {
	client, db, done := stack(t, nil)
	defer done()
	seedToys(t, db)
	app := apps.Toystore()
	rng := rand.New(rand.NewSource(8))
	names := []string{"bear", "truck", "kite", "doll"}
	nextID := int64(100)

	for step := 0; step < 300; step++ {
		if rng.Intn(100) < 75 {
			q := app.Query([]string{"Q1", "Q2"}[rng.Intn(2)])
			var params []interface{}
			if q.ID == "Q1" {
				params = []interface{}{names[rng.Intn(len(names))]}
			} else {
				params = []interface{}{1 + rng.Intn(8)}
			}
			got, err := client.Query(context.Background(), q, params...)
			if err != nil {
				t.Fatal(err)
			}
			vals, _ := dssp.Params(params...)
			want, err := engine.ExecQuery(db, q.Stmt.(*sqlparse.SelectStmt), vals)
			if err != nil {
				t.Fatal(err)
			}
			if got.Result.Fingerprint(false) != want.Fingerprint(false) {
				t.Fatalf("step %d: stale networked answer for %s%v", step, q.ID, params)
			}
		} else if rng.Intn(2) == 0 {
			if _, _, err := client.Update(context.Background(), app.Update("U1"), 1+rng.Intn(8)); err != nil {
				t.Fatal(err)
			}
		} else {
			nextID++
			// No insert-toy template exists; write directly to master and
			// issue a no-op-ish delete to trigger invalidation monitoring.
			if err := db.Insert("toys", storage.Row{
				sqlparse.IntVal(nextID), sqlparse.StringVal(names[rng.Intn(len(names))]), sqlparse.IntVal(int64(rng.Intn(30))),
			}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := client.Update(context.Background(), app.Update("U1"), int(nextID)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestNetworkErrors(t *testing.T) {
	client, _, done := stack(t, nil)
	defer done()
	app := apps.Toystore()
	// Unknown parameter type.
	if _, err := client.Query(context.Background(), app.Query("Q2"), struct{}{}); err == nil {
		t.Error("bad parameter accepted")
	}
	// Dead node.
	deadClient := NewClient(client.Codec, "http://127.0.0.1:1", nil)
	if _, err := deadClient.Query(context.Background(), app.Query("Q2"), 5); err == nil {
		t.Error("dead node did not error")
	}
}

func TestNodeRejectsGarbage(t *testing.T) {
	client, _, done := stack(t, nil)
	defer done()
	f := dialFrames(t, client.NodeURL).exchange(t, encodeFrame(&frame{op: OpQuery, stream: 1}))
	if f.status != statusBadRequest {
		t.Errorf("a query frame with an empty body answered %v, want bad request", f.status)
	}
}

func TestMetricsEndpointReplacesStats(t *testing.T) {
	client, db, done := stack(t, nil)
	defer done()
	seedToys(t, db)
	app := apps.Toystore()
	if _, err := client.Query(context.Background(), app.Query("Q2"), 5); err != nil {
		t.Fatal(err)
	}
	// The stats endpoint is gone.
	resp, err := http.Get(client.NodeURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("/v1/stats should no longer exist")
	}
	// Its replacement serves a JSON registry snapshot.
	resp, err = http.Get(client.NodeURL + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if m := snap.Find(obs.MCacheMisses, map[string]string{obs.LTemplate: "Q2"}); m == nil || m.Value != 1 {
		t.Errorf("misses metric = %+v", m)
	}
	if m := snap.Find(obs.MCacheStores, nil); m == nil || m.Value != 1 {
		t.Errorf("stores metric = %+v", m)
	}
}
