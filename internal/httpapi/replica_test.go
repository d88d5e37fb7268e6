package httpapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/home"
	"dssp/internal/homeserver"
	"dssp/internal/obs"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/wire"
)

// replicatedStack boots the full replicated home tier as HTTP processes:
// a primary whose confirmed-update hub streams to two replica servers,
// and a node spreading misses across them. Returns the client,
// replicas, and the hub.
func replicatedStack(t *testing.T) (*Client, []*home.Replica, *ReplicaHub, func()) {
	t.Helper()
	f := startToystore(t, Spec{Nodes: 1, Replicas: 2}, nil)
	return f.Client, f.Replicas[0], f.Hubs[0], func() {
		if err := f.Close(); err != nil {
			t.Errorf("fleet close: %v", err)
		}
	}
}

// TestReplicaServesMissAfterStream checks the happy path end to end over
// real HTTP: an update confirms at the primary, the hub streams it to the
// replicas, and once applied a subsequent miss is served by a replica —
// with the correct, post-update rows.
func TestReplicaServesMissAfterStream(t *testing.T) {
	client, reps, hub, done := replicatedStack(t)
	defer done()
	app := apps.Toystore()
	ctx := context.Background()

	if _, _, err := client.Update(ctx, app.Update("U1"), 1); err != nil {
		t.Fatal(err)
	}
	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := hub.Drain(drainCtx); err != nil {
		t.Fatalf("hub drain: %v", err)
	}
	for i, rep := range reps {
		if got := rep.Applied(); got != 1 {
			t.Fatalf("replica %d applied %d after drain, want 1", i, got)
		}
	}

	res, err := client.Query(ctx, app.Query("Q1"), "bear")
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Hit {
		t.Fatal("query unexpectedly hit an empty cache")
	}
	if res.Result.Len() != 0 {
		t.Errorf("deleted toy still visible through replica: %d rows", res.Result.Len())
	}
	var served int
	for _, rep := range reps {
		served += rep.QueriesServed()
	}
	if served != 1 {
		t.Errorf("replicas served %d misses, want exactly 1", served)
	}
}

// TestLaggingReplicaBypassedToPrimary pins the staleness protocol over
// real HTTP: a node spreads misses over two replicas the primary's hub
// cannot reach yet (linkDown), so an update confirmed at the primary
// leaves both at watermark 0 behind the node's freshness floor. A miss
// then finds every replica refusing — lag, not failure — and the node
// serves it from the primary, counting the bypass; the stale replica
// result is never used. Once the link is up and the stream drains, the
// replicas are rediscovered and serve again.
func TestLaggingReplicaBypassedToPrimary(t *testing.T) {
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	primaries, replicas, err := home.NewTier(app, codec, func() (*storage.Database, error) {
		db := storage.NewDatabase(app.Schema)
		seedToys(t, db)
		return db, nil
	}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	primary, reps := primaries[0], replicas[0]
	var repURLs []string
	for _, rep := range reps {
		repURLs = append(repURLs, startServer(t, ReplicaHandler(rep)).URL)
	}
	link, up := linkDown()
	h, hub := Topology{Home: []HomeEndpoint{{Replicas: repURLs}}}.PrimaryHandler(0, primary, link)
	homeURL := startServer(t, h).URL
	t.Cleanup(hub.Close)
	node := dssp.NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{})
	nodeURL := startServer(t, NewNodeServerWithOptions(node, "", nil,
		NodeOptions{Home: []HomeEndpoint{{Primary: homeURL, Replicas: repURLs}}}).Handler()).URL
	client := NewClient(codec, nodeURL, nil)
	ctx := context.Background()

	if _, _, err := client.Update(ctx, app.Update("U1"), 1); err != nil {
		t.Fatal(err)
	}
	// The update confirmed (floor raised at the node), but no replica
	// has been streamed it.
	res, err := client.Query(ctx, app.Query("Q1"), "bear")
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Len() != 0 {
		t.Errorf("stale rows served during replica lag: %d rows", res.Result.Len())
	}
	if n := node.Cache.Obs().Counter(obs.MHomeReplicaBypasses, obs.L(obs.LReason, "lag")).Value(); n == 0 {
		t.Error("lag bypass not counted; the miss was not refused by a lagging replica")
	}
	for _, rep := range reps {
		if rep.QueriesServed() != 0 {
			t.Error("a lagging replica executed a query; the floor check must refuse first")
		}
	}

	// Reachable, the replicas are streamed the retained log, catch up,
	// and are rediscovered.
	up()
	drainCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	if err := hub.Drain(drainCtx); err != nil {
		t.Fatalf("hub drain: %v", err)
	}
	var recovered bool
	for i := 0; i < 2*16 && !recovered; i++ { // staleProbeEvery picks land within this budget
		if _, err := client.Query(ctx, app.Query("Q2"), i); err != nil {
			t.Fatal(err)
		}
		for _, rep := range reps {
			recovered = recovered || rep.QueriesServed() > 0
		}
	}
	if !recovered {
		t.Error("replicas never rediscovered after catching up")
	}
}

// TestHubStreamsToLateRegistrant checks a replica the hub reaches only
// after updates have already confirmed receives the whole retained log.
func TestHubStreamsToLateRegistrant(t *testing.T) {
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	db := storage.NewDatabase(app.Schema)
	seedToys(t, db)
	primary := homeserver.New(db, app, codec)
	rdb := storage.NewDatabase(app.Schema)
	seedToys(t, rdb)
	rep := home.NewReplica("late", rdb, app, codec)
	link, up := linkDown()
	hub := NewReplicaHub(link, nil, []string{startServer(t, ReplicaHandler(rep)).URL})
	defer hub.Close()
	primary.OnConfirm(hub.Confirm)

	for _, id := range []int64{1, 2} {
		vals, err := dssp.Params(int(id))
		if err != nil {
			t.Fatal(err)
		}
		su, err := codec.SealUpdate(app.Update("U1"), vals)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := primary.ExecUpdate(su); err != nil {
			t.Fatal(err)
		}
	}

	up()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hub.Drain(ctx); err != nil {
		t.Fatalf("hub drain: %v", err)
	}
	if got := rep.Applied(); got != 2 {
		t.Fatalf("the late replica applied %d, want 2", got)
	}
}

// linkDown is a client over which every call fails until up is called:
// a hub given it cannot reach its replicas until then, and retries.
func linkDown() (client *http.Client, up func()) {
	var isUp atomic.Bool
	return &http.Client{Timeout: DefaultTimeout, Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if !isUp.Load() {
			return nil, errors.New("link down")
		}
		return http.DefaultTransport.RoundTrip(r)
	})}, func() { isUp.Store(true) }
}

// TestHubKeepsItsConfirmedUpdates: the home lends the hub each confirmed
// update for the call (homeserver.Confirmed) — here read in place from a
// frame, as the home's exec update handler reads it — and the frame is
// overwritten the moment ExecUpdate returns, while the hub, whose link is
// down, still holds every update in its log. Once the link is up, the
// replica applies exactly what the primary applied: the same rows, down
// to the strings an insertion stored. So the hub keeps a copy of its own,
// and nothing of the frame.
func TestHubKeepsItsConfirmedUpdates(t *testing.T) {
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	seed := func() *storage.Database {
		db := storage.NewDatabase(app.Schema)
		seedToys(t, db)
		for i := int64(1); i <= 3; i++ {
			if err := db.Insert("customers", storage.Row{sqlparse.IntVal(i), sqlparse.StringVal(fmt.Sprint("customer-", i))}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	db := seed()
	primary := homeserver.New(db, app, codec)
	rdb := seed()
	rep := home.NewReplica("replica", rdb, app, codec)
	link, up := linkDown()
	hub := NewReplicaHub(link, nil, []string{startServer(t, ReplicaHandler(rep)).URL})
	defer hub.Close()
	primary.OnConfirm(hub.Confirm)

	ids := app.IDs()
	updates := []struct {
		id     string
		params []sqlparse.Value
	}{
		{"U2", []sqlparse.Value{sqlparse.IntVal(1), sqlparse.StringVal("4111-1"), sqlparse.StringVal("15213")}},
		{"U1", []sqlparse.Value{sqlparse.IntVal(2)}},
		{"U2", []sqlparse.Value{sqlparse.IntVal(3), sqlparse.StringVal("4111-3"), sqlparse.StringVal("10001")}},
	}
	for _, u := range updates {
		su, err := codec.SealUpdate(app.Update(u.id), u.params)
		if err != nil {
			t.Fatal(err)
		}
		frame := wire.AppendSealedUpdate(nil, &su)
		lent, err := wire.ReadSealedUpdate(frame, ids)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := primary.ExecUpdate(lent); err != nil {
			t.Fatal(err)
		}
		for i := range frame {
			frame[i] ^= 0xA5
		}
	}

	up()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hub.Drain(ctx); err != nil {
		t.Fatalf("hub drain: %v", err)
	}
	if got := rep.Applied(); got != uint64(len(updates)) {
		t.Fatalf("the replica applied %d updates, want %d", got, len(updates))
	}
	for _, table := range []string{"toys", "customers", "credit_card"} {
		if got, want := tableRows(rdb, table), tableRows(db, table); !reflect.DeepEqual(got, want) {
			t.Fatalf("the replica's %s holds %q, the primary's %q", table, got, want)
		}
	}
	if n := len(tableRows(db, "credit_card")); n != 2 {
		t.Fatalf("the primary holds %d credit cards, want 2: the test proves nothing", n)
	}
}

// tableRows renders every row of a table, in the table's order.
func tableRows(db *storage.Database, table string) []string {
	var rows []string
	db.Table(table).Scan(func(r storage.Row) bool {
		rows = append(rows, fmt.Sprint(r))
		return true
	})
	return rows
}
