package httpapi

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/home"
	"dssp/internal/homeserver"
	"dssp/internal/obs"
	"dssp/internal/storage"
	"dssp/internal/wire"
)

// replicatedStack boots the full replicated home tier as HTTP processes:
// a primary with the confirmed-update hub, two replica servers registered
// with it, and a node spreading misses across them. Returns the client,
// replicas, the node's registry (for bypass counters), and the hub.
func replicatedStack(t *testing.T) (*Client, []*home.Replica, *obs.Registry, *ReplicaHub, func()) {
	t.Helper()
	f := startToystore(t, Spec{Nodes: 1, Replicas: 2}, nil)
	return f.Client, f.Replicas[0], f.Nodes[0].Cache.Obs(), f.Hubs[0], func() {
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
	client, reps, _, hub, done := replicatedStack(t)
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
// real HTTP: with apply lag injected into every replica (the
// -inject-replica-lag knob), a miss issued after an update finds every
// replica behind the node's freshness floor — each refuses with 409 — and
// the node serves the miss from the primary, counting the bypass. The
// stale replica result is never used.
func TestLaggingReplicaBypassedToPrimary(t *testing.T) {
	client, reps, reg, hub, done := replicatedStack(t)
	defer done()
	app := apps.Toystore()
	ctx := context.Background()
	for _, rep := range reps {
		rep.SetApplyDelay(2 * time.Second)
	}

	if _, _, err := client.Update(ctx, app.Update("U1"), 1); err != nil {
		t.Fatal(err)
	}
	// The update confirmed (floor raised at the node), but the injected
	// lag holds both replicas at watermark 0.
	res, err := client.Query(ctx, app.Query("Q1"), "bear")
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Len() != 0 {
		t.Errorf("stale rows served during replica lag: %d rows", res.Result.Len())
	}
	if n := reg.Counter(obs.MHomeReplicaBypasses, obs.L(obs.LReason, "lag")).Value(); n == 0 {
		t.Error("lag bypass not counted; the miss was not refused by a lagging replica")
	}
	for _, rep := range reps {
		if rep.QueriesServed() != 0 {
			t.Error("a lagging replica executed a query; the floor check must refuse first")
		}
	}

	// Once the injected lag elapses and the stream drains, replicas are
	// rediscovered and serve again.
	for _, rep := range reps {
		rep.SetApplyDelay(0)
	}
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

// TestHubStreamsToLateRegistrant checks a replica that registers after
// updates have already confirmed receives the whole retained log.
func TestHubStreamsToLateRegistrant(t *testing.T) {
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	db := storage.NewDatabase(app.Schema)
	seedToys(t, db)
	primary := homeserver.New(db, app, codec)
	hub := NewReplicaHub(nil, nil)
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

	rdb := storage.NewDatabase(app.Schema)
	seedToys(t, rdb)
	rep := home.NewReplica("late", rdb, app, codec)
	srv := httptest.NewServer(ReplicaHandler(rep))
	defer srv.Close()
	hub.Register(srv.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hub.Drain(ctx); err != nil {
		t.Fatalf("hub drain: %v", err)
	}
	if got := rep.Applied(); got != 2 {
		t.Fatalf("late registrant applied %d, want 2", got)
	}
}
