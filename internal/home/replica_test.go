package home_test

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dssp/internal/encrypt"
	"dssp/internal/home"
	"dssp/internal/homeserver"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/schema"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// raceApp is a toystore variant whose update is an in-place UPDATE, so
// repeated updates keep the table populated and every replay order
// difference would change the final qty values.
func raceApp() *template.App {
	sch := schema.New()
	sch.MustAddTable("toys", []schema.Column{
		{Name: "toy_id", Type: schema.TInt},
		{Name: "toy_name", Type: schema.TString},
		{Name: "qty", Type: schema.TInt},
	}, "toy_id")
	return &template.App{
		Name:   "replica-race",
		Schema: sch,
		Queries: []*template.Template{
			template.MustNew("Q1", sch, "SELECT toy_id, qty FROM toys WHERE qty >= ?"),
		},
		Updates: []*template.Template{
			template.MustNew("U1", sch, "UPDATE toys SET qty=? WHERE toy_id=?"),
		},
	}
}

func seedRows(t *testing.T, db *storage.Database, rows int) {
	t.Helper()
	for i := 0; i < rows; i++ {
		if err := db.Insert("toys", storage.Row{
			sqlparse.IntVal(int64(i)), sqlparse.StringVal("toy"), sqlparse.IntVal(0),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// fixture builds a primary and k replicas over identical databases.
func fixture(t *testing.T, k int) (*homeserver.Server, []*home.Replica, *wire.Codec, *template.App) {
	t.Helper()
	app := raceApp()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	const rows = 16
	db := storage.NewDatabase(app.Schema)
	seedRows(t, db, rows)
	primary := homeserver.New(db, app, codec)
	reps := make([]*home.Replica, k)
	for i := range reps {
		rdb := storage.NewDatabase(app.Schema)
		seedRows(t, rdb, rows)
		reps[i] = home.NewReplica(string(rune('a'+i)), rdb, app, codec)
	}
	return primary, reps, codec, app
}

// sealedScan executes the scan query against a backend and returns the
// sealed result bytes — deterministic sealing makes equal database states
// produce equal bytes.
func sealedScan(t *testing.T, codec *wire.Codec, app *template.App,
	exec func(wire.SealedQuery) (wire.SealedResult, bool, int, error)) []byte {
	t.Helper()
	sq, err := codec.SealQuery(app.Query("Q1"), []sqlparse.Value{sqlparse.IntVal(0)})
	if err != nil {
		t.Fatal(err)
	}
	res, _, _, err := exec(sq)
	if err != nil {
		t.Fatal(err)
	}
	return res.Cipher
}

// TestReplicaNeverAheadOfConfirmation is the replicated tier's safety
// race test: under concurrent writers a replica's applied watermark must
// never pass the primary's confirmed high-water mark — an update must not
// be visible on a replica before the home server has confirmed it to the
// DSSP tier. Run under -race, it also pins the primary's confirm lock.
func TestReplicaNeverAheadOfConfirmation(t *testing.T) {
	primary, reps, codec, app := fixture(t, 2)
	home.TierParts([]*homeserver.Server{primary}, [][]*home.Replica{reps})

	const writers = 4
	const perWriter = 40
	var stop atomic.Bool
	var violations atomic.Int64

	var watchers sync.WaitGroup
	for _, rep := range reps {
		rep := rep
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			for !stop.Load() {
				// Read the replica first: its watermark only advances after
				// the primary's confirmed mark does, so applied-then-
				// confirmed reads can only under-report the gap.
				a := rep.Applied()
				if c := primary.ConfirmedSeq(); a > c {
					violations.Add(1)
					return
				}
			}
		}()
	}

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(seed int64) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				su, err := codec.SealUpdate(app.Update("U1"),
					[]sqlparse.Value{sqlparse.IntVal(int64(i)), sqlparse.IntVal((seed + int64(i)) % 16)})
				if err != nil {
					t.Error(err)
					return
				}
				if _, _, err := primary.ExecUpdate(su); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w) * 5)
	}
	writersWG.Wait()
	stop.Store(true)
	watchers.Wait()

	if n := violations.Load(); n != 0 {
		t.Fatalf("replica watermark passed the confirmed mark %d times", n)
	}
	const total = writers * perWriter
	if got := primary.AssignedSeq(); got != total {
		t.Fatalf("assigned %d sequences, want %d", got, total)
	}
	if got := primary.ConfirmedSeq(); got != total {
		t.Fatalf("confirmed high-water %d, want %d (stream not drained)", got, total)
	}
	want := sealedScan(t, codec, app, primary.ExecQuery)
	for _, rep := range reps {
		if got := rep.Applied(); got != total {
			t.Fatalf("replica %s applied %d, want %d", rep.Name(), got, total)
		}
		if got := sealedScan(t, codec, app, rep.ExecQuery); !bytes.Equal(got, want) {
			t.Errorf("replica %s database diverged from the primary after replay", rep.Name())
		}
	}
}

// TestConfirmStreamContiguous pins the primary's ordering contract under
// concurrency: however racing updates interleave, the OnConfirm sink must
// see sequences 1..N in order without gaps or duplicates.
func TestConfirmStreamContiguous(t *testing.T) {
	primary, _, codec, app := fixture(t, 0)
	var mu sync.Mutex
	var seqs []uint64
	primary.OnConfirm(func(c homeserver.Confirmed) {
		mu.Lock()
		seqs = append(seqs, c.Seq)
		mu.Unlock()
	})

	const writers = 8
	const perWriter = 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				su, err := codec.SealUpdate(app.Update("U1"),
					[]sqlparse.Value{sqlparse.IntVal(int64(i)), sqlparse.IntVal((seed + int64(i)) % 16)})
				if err != nil {
					t.Error(err)
					return
				}
				if _, _, err := primary.ExecUpdate(su); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w) * 3)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != writers*perWriter {
		t.Fatalf("sink saw %d confirmations, want %d", len(seqs), writers*perWriter)
	}
	for i, s := range seqs {
		if s != uint64(i)+1 {
			t.Fatalf("confirmation %d has seq %d, want %d (stream not contiguous)", i, s, i+1)
		}
	}
}

// TestApplyBatchResumesFromItsWatermark drives a replica directly with the
// deliveries a retrying push stream produces — a batch past the watermark
// (what a restarted replica is sent), the run that continues the
// watermark, a duplicate, and the tail resent from before the watermark —
// and checks the replica applies exactly the run from its watermark each
// time and converges to the primary's exact state.
func TestApplyBatchResumesFromItsWatermark(t *testing.T) {
	primary, reps, codec, app := fixture(t, 1)
	rep := reps[0]
	var stream []homeserver.Confirmed
	primary.OnConfirm(func(c homeserver.Confirmed) {
		stream = append(stream, c)
	})
	for i := 0; i < 10; i++ {
		su, err := codec.SealUpdate(app.Update("U1"),
			[]sqlparse.Value{sqlparse.IntVal(int64(i * 7)), sqlparse.IntVal(int64(i % 16))})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := primary.ExecUpdate(su); err != nil {
			t.Fatal(err)
		}
	}

	for _, step := range []struct {
		name  string
		batch []homeserver.Confirmed
		want  uint64
	}{
		{"the tail, past the watermark", stream[5:], 0},
		{"the head", stream[:5], 5},
		{"a duplicate", stream[2:4], 5},
		{"the tail resent from before the watermark", stream[3:], 10},
	} {
		if err := rep.ApplyBatch(step.batch); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if got := rep.Applied(); got != step.want {
			t.Fatalf("after %s the replica applied %d, want %d", step.name, got, step.want)
		}
	}

	want := sealedScan(t, codec, app, primary.ExecQuery)
	if got := sealedScan(t, codec, app, rep.ExecQuery); !bytes.Equal(got, want) {
		t.Error("replica database diverged from the primary")
	}
}

// TestApplyDelayInjectsLag pins the -inject-replica-lag knob: with a
// delay set, a replica's watermark trails the confirmed stream while the
// delay elapses.
func TestApplyDelayInjectsLag(t *testing.T) {
	primary, reps, codec, app := fixture(t, 1)
	rep := reps[0]
	rep.SetApplyDelay(50 * time.Millisecond)
	applied := make(chan struct{})
	primary.OnConfirm(func(c homeserver.Confirmed) {
		go func() {
			if err := rep.ApplyBatch([]homeserver.Confirmed{c}); err != nil {
				t.Error(err)
			}
			close(applied)
		}()
	})
	su, err := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(9), sqlparse.IntVal(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := primary.ExecUpdate(su); err != nil {
		t.Fatal(err)
	}
	if got := rep.Applied(); got != 0 {
		t.Fatalf("replica applied %d during injected lag, want 0", got)
	}
	<-applied
	if got := rep.Applied(); got != 1 {
		t.Fatalf("replica applied %d after injected lag elapsed, want 1", got)
	}
}

// TestMisarmedReplicaApplyFailureIsCountedAndBypassed wires a replica
// armed for partition 1 behind partition 0's primary — a deployment
// mistake whose every apply the replica's misroute guard refuses. The
// failure must be loud where it happens (the apply-error counter, one log
// line) and harmless downstream: the watermark never moves, so every miss
// past the failed update bypasses to the primary and reads the truth.
func TestMisarmedReplicaApplyFailureIsCountedAndBypassed(t *testing.T) {
	primaries, replicas, codec, app := twoGroupTier(t, 2, 1)
	rep := replicas[1][0]
	var logged bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	defer slog.SetDefault(prev)

	reg := obs.NewRegistry()
	transport, fresh := pipeline.NewTierTransport(
		home.TierParts(primaries, [][]*home.Replica{{rep}, nil}), reg)

	for qty := int64(1); qty <= 2; qty++ {
		su, err := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(qty), sqlparse.IntVal(3)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := execUpdate(transport, su)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Raise(su.Group, res.Seq) // what the node's pipeline does on confirmation
	}
	if n := rep.Obs().Counter(obs.MHomeReplicaApplyErrors, obs.L(obs.LReplica, rep.Name())).Value(); n == 0 {
		t.Error("apply-error counter is 0 after the replica refused a confirmed update")
	}
	if got := rep.Applied(); got != 0 {
		t.Errorf("replica watermark = %d, want 0: nothing applied", got)
	}
	if n := strings.Count(logged.String(), "replica apply failed"); n != 1 {
		t.Errorf("feed logged the failing replica %d times, want once:\n%s", n, logged.String())
	}

	sq, err := codec.SealQuery(app.Query("Q1"), []sqlparse.Value{sqlparse.IntVal(3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := execQuery(transport, sq); err != nil {
		t.Fatalf("miss behind the stalled replica: %v", err)
	}
	if primaries[0].QueriesServed() != 1 || rep.QueriesServed() != 0 {
		t.Errorf("miss served by primary %d times, replica %d; want 1 and 0",
			primaries[0].QueriesServed(), rep.QueriesServed())
	}
	if n := reg.Counter(obs.MHomeReplicaBypasses, obs.L(obs.LReason, "lag")).Value(); n != 1 {
		t.Errorf("lag bypasses = %d, want 1", n)
	}
}
