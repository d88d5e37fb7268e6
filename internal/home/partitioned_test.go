package home_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dssp/internal/encrypt"
	"dssp/internal/home"
	"dssp/internal/homeserver"
	"dssp/internal/pipeline"
	"dssp/internal/schema"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// twoGroupApp has two independent table groups — toys, and the FK-joined
// customers/credit_card pair — each with an in-place update, so a
// 2-partition tier owns exactly one group per partition.
func twoGroupApp() *template.App {
	sch := schema.New()
	sch.MustAddTable("toys", []schema.Column{
		{Name: "toy_id", Type: schema.TInt},
		{Name: "qty", Type: schema.TInt},
	}, "toy_id")
	sch.MustAddTable("customers", []schema.Column{
		{Name: "cust_id", Type: schema.TInt},
		{Name: "cust_name", Type: schema.TString},
	}, "cust_id")
	sch.MustAddTable("credit_card", []schema.Column{
		{Name: "cid", Type: schema.TInt},
		{Name: "zip_code", Type: schema.TString},
	}, "cid")
	sch.MustAddForeignKey("credit_card", "cid", "customers", "cust_id")
	return &template.App{
		Name:   "two-group",
		Schema: sch,
		Queries: []*template.Template{
			template.MustNew("Q1", sch, "SELECT qty FROM toys WHERE toy_id=?"),
			template.MustNew("Q2", sch, "SELECT zip_code FROM credit_card WHERE cid=?"),
		},
		Updates: []*template.Template{
			template.MustNew("U1", sch, "UPDATE toys SET qty=? WHERE toy_id=?"),
			template.MustNew("U2", sch, "UPDATE credit_card SET zip_code=? WHERE cid=?"),
		},
	}
}

func seedTwoGroup(t *testing.T, db *storage.Database) {
	t.Helper()
	for i := int64(0); i < 8; i++ {
		if err := db.Insert("toys", storage.Row{sqlparse.IntVal(i), sqlparse.IntVal(0)}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("customers", storage.Row{sqlparse.IntVal(i), sqlparse.StringVal("c")}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("credit_card", storage.Row{sqlparse.IntVal(i), sqlparse.StringVal("0")}); err != nil {
			t.Fatal(err)
		}
	}
}

// twoGroupTier is home.NewTier over the two-group application: parts
// primaries and replicas replicas behind each, all from the same seed.
func twoGroupTier(t *testing.T, parts, replicas int) ([]*homeserver.Server, [][]*home.Replica, *wire.Codec, *template.App) {
	t.Helper()
	app := twoGroupApp()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	primaries, reps, err := home.NewTier(app, codec, func() (*storage.Database, error) {
		db := storage.NewDatabase(app.Schema)
		seedTwoGroup(t, db)
		return db, nil
	}, parts, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return primaries, reps, codec, app
}

// partitionedFixture builds a parts-partition tier the way every
// deployment does — home.NewTier, then the one node→home wiring over the
// in-process endpoints — and returns the primaries with the transport a
// node would drive.
func partitionedFixture(t *testing.T, parts int) ([]*homeserver.Server, pipeline.Transport, *wire.Codec, *template.App) {
	t.Helper()
	primaries, replicas, codec, app := twoGroupTier(t, parts, 0)
	transport, fresh := pipeline.NewTierTransport(home.TierParts(primaries, replicas), nil)
	if fresh == nil || fresh.Parts() != parts {
		t.Fatalf("freshness vector = %v, want one floor per partition (%d)", fresh, parts)
	}
	return primaries, transport, codec, app
}

// execUpdate and execQuery drive the transport as a node's pipeline does;
// the in-process transports resolve before returning.
func execUpdate(tr pipeline.Transport, su wire.SealedUpdate) (res pipeline.ExecUpdateResult, err error) {
	tr.ExecUpdate(context.Background(), su, func(r pipeline.ExecUpdateResult, e error) { res, err = r, e })
	return res, err
}

func execQuery(tr pipeline.Transport, sq wire.SealedQuery) (err error) {
	tr.ExecQuery(context.Background(), sq, func(_ pipeline.ExecQueryResult, e error) { err = e })
	return err
}

// TestPartitionedSequencesStayContiguousUnderConcurrency hammers both
// partitions from concurrent updaters and checks each partition's
// confirmation stream independently: sequences must be gap-free and
// contiguous from 1, every update of a partition's group must be in its
// — and only its — stream (the transport routes by group), and each
// partition must end drained. Run under -race: the per-partition sequence
// counters and confirm locks must not share state.
func TestPartitionedSequencesStayContiguousUnderConcurrency(t *testing.T) {
	primaries, transport, codec, app := partitionedFixture(t, 2)

	type stream struct {
		mu   sync.Mutex
		seqs []uint64
		tpls []string
	}
	streams := make([]*stream, len(primaries))
	for p := range streams {
		st := &stream{}
		streams[p] = st
		primaries[p].OnConfirm(func(c homeserver.Confirmed) {
			st.mu.Lock()
			defer st.mu.Unlock()
			st.seqs = append(st.seqs, c.Seq)
			st.tpls = append(st.tpls, c.Update.TemplateID)
		})
	}

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tpl, params := app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(int64(i)), sqlparse.IntVal(int64(w % 8))}
				if w%2 == 1 {
					tpl, params = app.Update("U2"), []sqlparse.Value{sqlparse.StringVal(fmt.Sprint(i)), sqlparse.IntVal(int64(w % 8))}
				}
				su, err := codec.SealUpdate(tpl, params)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := execUpdate(transport, su); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	wantPerPart := workers / 2 * perWorker
	for p, st := range streams {
		st.mu.Lock()
		if len(st.seqs) != wantPerPart {
			t.Fatalf("partition %d confirmed %d updates, want %d", p, len(st.seqs), wantPerPart)
		}
		for i, seq := range st.seqs {
			if seq != uint64(i)+1 {
				t.Fatalf("partition %d stream has gap at position %d: seq %d (want %d)", p, i, seq, i+1)
			}
		}
		// Exposure defaults to stmt for updates, so TemplateID rides the
		// sealed form: partition 0 must only ever confirm U1, partition 1
		// only U2.
		want := "U1"
		if p == 1 {
			want = "U2"
		}
		for _, id := range st.tpls {
			if id != want {
				t.Fatalf("partition %d confirmed template %s, want only %s", p, id, want)
			}
		}
		st.mu.Unlock()
		if got := primaries[p].ConfirmedSeq(); got != uint64(wantPerPart) {
			t.Errorf("partition %d ConfirmedSeq = %d, want %d", p, got, wantPerPart)
		}
		// Drained — assigned == confirmed — is the graceful-shutdown
		// condition, per partition.
		if a, c := primaries[p].AssignedSeq(), primaries[p].ConfirmedSeq(); a != c {
			t.Errorf("partition %d not drained after all updates confirmed: assigned %d, confirmed %d", p, a, c)
		}
	}
}

// TestPartitionedRefusesMisroutedStatement pins the misroute guard: a
// statement carrying a forged group hint reaches the wrong partition,
// whose engine re-derives the true group from the opened payload and
// refuses — the untrusted hint can waste a round trip but never fork the
// serialization order.
func TestPartitionedRefusesMisroutedStatement(t *testing.T) {
	primaries, transport, codec, app := partitionedFixture(t, 2)

	su, err := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(1), sqlparse.IntVal(1)})
	if err != nil {
		t.Fatal(err)
	}
	su.Group = 1 // forged: U1's true group is 0
	if _, err := execUpdate(transport, su); err == nil || !strings.Contains(err.Error(), "misrouted") {
		t.Fatalf("forged update hint err = %v, want misroute refusal", err)
	}

	sq, err := codec.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(1)})
	if err != nil {
		t.Fatal(err)
	}
	sq.Group = 0 // forged: Q2's true group is 1
	if err := execQuery(transport, sq); err == nil || !strings.Contains(err.Error(), "misrouted") {
		t.Fatalf("forged query hint err = %v, want misroute refusal", err)
	}
	for p, primary := range primaries {
		if a := primary.AssignedSeq(); a != 0 {
			t.Errorf("partition %d assigned sequence %d to a refused statement", p, a)
		}
	}

	// Correct hints execute on their owning partitions.
	su2, err := codec.SealUpdate(app.Update("U2"), []sqlparse.Value{sqlparse.StringVal("9"), sqlparse.IntVal(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := execUpdate(transport, su2); err != nil || res.Seq != 1 {
		t.Fatalf("routed update: seq %d, err %v; want seq 1 on partition 1", res.Seq, err)
	}
	if primaries[0].UpdatesApplied() != 0 || primaries[1].UpdatesApplied() != 1 {
		t.Errorf("updates applied = [%d %d], want the routed update on partition 1 only",
			primaries[0].UpdatesApplied(), primaries[1].UpdatesApplied())
	}
}
