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

func testServer(t testing.TB) (*Server, *wire.Codec, *template.App) {
	t.Helper()
	return exposedServer(t, nil)
}

// exposedServer is testServer under the exposure assignment exps.
func exposedServer(t testing.TB, exps map[string]template.Exposure) (*Server, *wire.Codec, *template.App) {
	t.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), exps)
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
	a, err := s.ExecQuery(sq)
	if err != nil {
		t.Fatal(err)
	}
	if a.Empty || a.Scanned != 1 {
		t.Errorf("empty=%v scanned=%d", a.Empty, a.Scanned)
	}
	plain, err := codec.OpenResult(a.Result)
	a.Release()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Row(0)[0].Int() != 25 {
		t.Errorf("result %v", plain.Vals)
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
		if _, err := s.ExecQuery(sq); err == nil {
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
	a, err := s.ExecQuery(sq)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	if !a.Empty {
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

// New compiles every update template as it compiles every query: a
// statement with the wrong number of parameters fails before any row is
// read, and a template the engine refuses fails each of its executions.
func TestExecUpdateRefusals(t *testing.T) {
	app := apps.Toystore()
	// A template assembled by hand, past the validator, that assigns a
	// column twice.
	u3 := *template.MustNew("U3", app.Schema, "UPDATE toys SET qty=?, toy_name=? WHERE toy_id=?")
	u3.Stmt = sqlparse.MustParse("UPDATE toys SET qty=?, qty=? WHERE toy_id=?")
	app.Updates = append(app.Updates, &u3)
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	db := storage.NewDatabase(app.Schema)
	if err := db.Insert("toys", storage.Row{sqlparse.IntVal(5), sqlparse.StringVal("kite"), sqlparse.IntVal(25)}); err != nil {
		t.Fatal(err)
	}
	s := New(db, app, codec)
	iv := sqlparse.IntVal
	for _, tc := range []struct {
		id     string
		params []sqlparse.Value
	}{
		{"U1", nil},
		{"U1", []sqlparse.Value{iv(5), iv(5)}},
		{"U3", []sqlparse.Value{iv(1), iv(2), iv(5)}},
		{"U3", []sqlparse.Value{iv(1), iv(2), iv(5)}},
	} {
		su, err := codec.SealUpdate(app.Update(tc.id), tc.params)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.ExecUpdate(su); err == nil {
			t.Errorf("%s%v executed", tc.id, tc.params)
		}
	}
	if s.UpdatesApplied() != 0 || db.Table("toys").LookupPK([]sqlparse.Value{iv(5)})[2].Int() != 25 {
		t.Errorf("refused updates changed the database: %d applied", s.UpdatesApplied())
	}
}

func TestKindMismatchRejected(t *testing.T) {
	s, codec, app := testServer(t)
	sq, _ := codec.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(5)})
	if _, _, err := s.ExecUpdate(wire.SealedUpdate{Opaque: sq.Opaque}); err == nil {
		t.Error("query payload accepted as update")
	}
	su, _ := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(5)})
	if _, err := s.ExecQuery(wire.SealedQuery{Opaque: su.Opaque}); err == nil {
		t.Error("update payload accepted as query")
	}
}

func TestTamperedPayloadRejected(t *testing.T) {
	s, codec, app := testServer(t)
	sq, _ := codec.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(5)})
	bad := append([]byte{}, sq.Opaque...)
	bad[len(bad)-1] ^= 1
	if _, err := s.ExecQuery(wire.SealedQuery{Opaque: bad}); err == nil {
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
				a, err := s.ExecQuery(sq)
				if err != nil {
					t.Error(err)
					return
				}
				_, err = codec.OpenResult(a.Result)
				a.Release()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// A warm ExecQuery allocates nothing, at any exposure: the statement is
// read into pooled scratch (wire.Codec.ReadPayload), the result runs into
// that scratch and, when it is sealed, is encrypted into it too, the
// answer lends both until its Release, and admission, spans and counters
// allocate nothing (a closure to release the admission slot would be an
// allocation). What keeps the answer copies it: the node's cache entry.
func TestExecQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse; allocation counts are meaningless")
	}
	for _, c := range []struct {
		exp  template.Exposure
		want float64
	}{{template.ExpStmt, 0}, {template.ExpView, 0}} {
		s, codec, app := exposedServer(t, map[string]template.Exposure{"Q2": c.exp})
		sq, err := codec.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(5)})
		if err != nil {
			t.Fatal(err)
		}
		exec := func() {
			a, err := s.ExecQuery(sq)
			if err != nil {
				t.Fatal(err)
			}
			a.Release()
		}
		exec()
		if n := testing.AllocsPerRun(100, exec); n > c.want {
			t.Errorf("warm ExecQuery at %v exposure: %v allocations, want <= %v", c.exp, n, c.want)
		}
	}
}

// BenchmarkExecQuery is a warm home exec of a query whose result is
// sealed: read, run and seal into the scratch the answer lends, no
// allocation. One exec before the timer warms the pools, so a short run
// (the smoke's 200x) reads the steady state rather than the server's
// set-up.
func BenchmarkExecQuery(b *testing.B) {
	s, codec, app := exposedServer(b, map[string]template.Exposure{"Q2": template.ExpStmt})
	sq, err := codec.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(5)})
	if err != nil {
		b.Fatal(err)
	}
	exec := func() {
		a, err := s.ExecQuery(sq)
		if err != nil {
			b.Fatal(err)
		}
		a.Release()
	}
	exec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec()
	}
}

// BenchmarkExecUpdate is a warm home exec of a modification at stmt
// exposure that stores two strings — toystore's credit card, renumbered
// and moved by id: read the payload into scratch, copy the two strings
// storage keeps into one allocation (keepStored), run. One exec before
// the timer warms the pools, so a short run (the smoke's 200x) reads the
// steady state.
func BenchmarkExecUpdate(b *testing.B) {
	app := apps.Toystore()
	app.Updates = append(app.Updates, template.MustNew("U3", app.Schema, "UPDATE credit_card SET number=?, zip_code=? WHERE cid=?"))
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	db := storage.NewDatabase(app.Schema)
	iv, sv := sqlparse.IntVal, sqlparse.StringVal
	if err := db.Insert("customers", storage.Row{iv(1), sv("customer-1")}); err != nil {
		b.Fatal(err)
	}
	if err := db.Insert("credit_card", storage.Row{iv(1), sv("4111"), sv("15213")}); err != nil {
		b.Fatal(err)
	}
	s := New(db, app, codec)
	su, err := codec.SealUpdate(app.Update("U3"), []sqlparse.Value{sv("4111"), sv("15213"), iv(1)})
	if err != nil {
		b.Fatal(err)
	}
	if n, _, err := s.ExecUpdate(su); err != nil || n != 1 {
		b.Fatal(n, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.ExecUpdate(su); err != nil {
			b.Fatal(err)
		}
	}
}
