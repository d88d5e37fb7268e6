package homeserver

import (
	"sync"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/encrypt"
	"dssp/internal/schema"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

func testServer(t *testing.T) (*Server, *wire.Codec, *template.App) {
	t.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	db := storage.NewDatabase(app.Schema)
	if err := db.Insert("toys", storage.Row{sqlparse.IntVal(5), sqlparse.StringVal("kite"), sqlparse.IntVal(25)}); err != nil {
		t.Fatal(err)
	}
	return New(db, app, codec), codec, app
}

func TestExecQuery(t *testing.T) {
	s, codec, app := testServer(t)
	sq, err := codec.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(5)})
	if err != nil {
		t.Fatal(err)
	}
	res, empty, scanned, err := s.ExecQuery(sq)
	if err != nil {
		t.Fatal(err)
	}
	if empty || scanned != 1 {
		t.Errorf("empty=%v scanned=%d", empty, scanned)
	}
	plain, err := codec.OpenResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Rows[0][0].Int != 25 {
		t.Errorf("result %v", plain.Rows)
	}
	if s.QueriesServed() != 1 {
		t.Errorf("QueriesServed = %d", s.QueriesServed())
	}
}

// The sealed payload carries however many parameters the client sent;
// nothing between OpenPayload and the engine counts them. A wrong count
// must fail the statement even when no row would ever have reached the
// missing operand (Q3's customers table is empty here).
func TestExecQueryRejectsWrongParamCount(t *testing.T) {
	s, codec, app := testServer(t)
	for _, tc := range []struct {
		id     string
		params []sqlparse.Value
	}{
		{"Q3", nil},
		{"Q2", nil},
		{"Q2", []sqlparse.Value{sqlparse.IntVal(5), sqlparse.IntVal(5)}},
	} {
		sq, err := codec.SealQuery(app.Query(tc.id), tc.params)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := s.ExecQuery(sq); err == nil {
			t.Errorf("%s with %d parameters executed", tc.id, len(tc.params))
		}
	}
	if s.QueriesServed() != 0 {
		t.Errorf("QueriesServed = %d after only refused statements", s.QueriesServed())
	}
}

func TestExecQueryEmptyHint(t *testing.T) {
	s, codec, app := testServer(t)
	sq, _ := codec.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(404)})
	_, empty, _, err := s.ExecQuery(sq)
	if err != nil {
		t.Fatal(err)
	}
	if !empty {
		t.Error("empty hint not set")
	}
}

func TestExecUpdate(t *testing.T) {
	s, codec, app := testServer(t)
	su, err := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(5)})
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := s.ExecUpdate(su)
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if s.UpdatesApplied() != 1 {
		t.Errorf("UpdatesApplied = %d", s.UpdatesApplied())
	}
	if s.DB.Table("toys").Len() != 0 {
		t.Error("row not deleted")
	}
}

func TestKindMismatchRejected(t *testing.T) {
	s, codec, app := testServer(t)
	sq, _ := codec.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(5)})
	if _, _, err := s.ExecUpdate(wire.SealedUpdate{Opaque: sq.Opaque}); err == nil {
		t.Error("query payload accepted as update")
	}
	su, _ := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(5)})
	if _, _, _, err := s.ExecQuery(wire.SealedQuery{Opaque: su.Opaque}); err == nil {
		t.Error("update payload accepted as query")
	}
}

func TestTamperedPayloadRejected(t *testing.T) {
	s, codec, app := testServer(t)
	sq, _ := codec.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(5)})
	bad := append([]byte{}, sq.Opaque...)
	bad[len(bad)-1] ^= 1
	if _, _, _, err := s.ExecQuery(wire.SealedQuery{Opaque: bad}); err == nil {
		t.Error("tampered payload accepted")
	}
}

// TestConcurrentQueryUpdateSeal regression-tests the ownership invariant
// ExecQuery relies on: it seals results after dropping the read lock, which
// is only safe because engine.Result rows never alias storage rows. The
// update template here is an in-place modification (UPDATE ... SET), the
// one update kind that mutates stored rows directly — if a result row
// aliased storage, the serialization in SealResult would race with it and
// the race detector would flag this test.
func TestConcurrentQueryUpdateSeal(t *testing.T) {
	sch := schema.New()
	sch.MustAddTable("toys", []schema.Column{
		{Name: "toy_id", Type: schema.TInt},
		{Name: "toy_name", Type: schema.TString},
		{Name: "qty", Type: schema.TInt},
	}, "toy_id")
	app := &template.App{
		Name:   "race-toystore",
		Schema: sch,
		Queries: []*template.Template{
			template.MustNew("Q1", sch, "SELECT toy_id, qty FROM toys WHERE qty >= ?"),
			template.MustNew("Q2", sch, "SELECT qty FROM toys WHERE toy_id=?"),
		},
		Updates: []*template.Template{
			template.MustNew("U1", sch, "UPDATE toys SET qty=? WHERE toy_id=?"),
		},
	}
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	db := storage.NewDatabase(app.Schema)
	const rows = 32
	for i := 0; i < rows; i++ {
		if err := db.Insert("toys", storage.Row{
			sqlparse.IntVal(int64(i)), sqlparse.StringVal("toy"), sqlparse.IntVal(0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := New(db, app, codec)

	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				su, err := codec.SealUpdate(app.Update("U1"),
					[]sqlparse.Value{sqlparse.IntVal(int64(i)), sqlparse.IntVal((seed + int64(i)) % rows)})
				if err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.ExecUpdate(su); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w) * 7)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qt, params := app.Query("Q1"), []sqlparse.Value{sqlparse.IntVal(0)}
			if w%2 == 1 {
				qt, params = app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(int64(w))}
			}
			for i := 0; i < iters; i++ {
				sq, err := codec.SealQuery(qt, params)
				if err != nil {
					t.Error(err)
					return
				}
				res, _, _, err := s.ExecQuery(sq)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := codec.OpenResult(res); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
