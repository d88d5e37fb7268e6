package homeserver

import (
	"fmt"
	"testing"
	"unsafe"

	"dssp/internal/apps"
	"dssp/internal/encrypt"
	"dssp/internal/engine"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// scrambleScratch overwrites the scratch the server read its last statement
// into and ran its last sealed result into, each to its capacity, and keeps
// it out of the pool, so a byte of that statement or a value of that result
// held past its exec reads as garbage for good. It reports whether the pool
// gave a scratch back.
func scrambleScratch(s *Server) bool {
	sc, ok := s.scratch.Get().(*execScratch)
	if !ok {
		return false
	}
	b := sc.plain[:cap(sc.plain)]
	for i := range b {
		b[i] ^= 0xA5
	}
	vals := sc.res.Vals[:cap(sc.res.Vals)]
	for i := range vals {
		vals[i] = sqlparse.StringVal("scrambled")
	}
	sc.res.Columns = []string{"scrambled"}
	return true
}

// TestHomeLendsOnlyForTheCall: a home server whose scratch is overwritten
// the moment each statement returns answers string-keyed queries, at view
// exposure (the result by pointer) and at stmt exposure (sealed), as the
// statements ask, and keeps in the master database exactly the strings its
// insertions and modifications carried. So a query's lent parameters are
// read only during its exec, a sealed result leaves the scratch it ran into
// inside its ciphertext, a view result is not in the scratch at all, and an
// update's strings, which storage keeps, are copies.
func TestHomeLendsOnlyForTheCall(t *testing.T) {
	app := apps.Toystore()
	app.Queries = append(app.Queries,
		template.MustNew("Q4", app.Schema, "SELECT number, zip_code FROM credit_card WHERE zip_code=?"))
	app.Updates = append(app.Updates,
		template.MustNew("U3", app.Schema, "UPDATE credit_card SET number=?, zip_code=? WHERE cid=?"))
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), map[string]template.Exposure{"Q4": template.ExpStmt})
	db := storage.NewDatabase(app.Schema)
	if err := db.Insert("toys", storage.Row{sqlparse.IntVal(5), sqlparse.StringVal("kite"), sqlparse.IntVal(25)}); err != nil {
		t.Fatal(err)
	}
	s := New(db, app, codec)
	iv, sv := sqlparse.IntVal, sqlparse.StringVal
	const n = 40
	scrambled := 0
	update := func(id string, params ...sqlparse.Value) {
		t.Helper()
		su, err := codec.SealUpdate(app.Update(id), params)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.ExecUpdate(su); err != nil {
			t.Fatalf("%s%v: %v", id, params, err)
		}
		if scrambleScratch(s) {
			scrambled++
		}
	}
	query := func(id string, params ...sqlparse.Value) *engine.Result {
		t.Helper()
		sq, err := codec.SealQuery(app.Query(id), params)
		if err != nil {
			t.Fatal(err)
		}
		sr, _, _, err := s.ExecQuery(sq)
		if err != nil {
			t.Fatalf("%s%v: %v", id, params, err)
		}
		if scrambleScratch(s) {
			scrambled++
		}
		res, err := codec.OpenResult(sr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := make(map[int64][2]string, n)
	for i := int64(0); i < n; i++ {
		if err := db.Insert("customers", storage.Row{iv(i), sv(fmt.Sprint("customer-", i))}); err != nil {
			t.Fatal(err)
		}
		number, zip := fmt.Sprint("number-", i), fmt.Sprint("zip-", i)
		update("U2", iv(i), sv(number), sv(zip))
		want[i] = [2]string{number, zip}
	}
	for i := int64(0); i < n; i += 2 {
		number, zip := fmt.Sprint("renumbered-", i), fmt.Sprint("moved-", i)
		update("U3", sv(number), sv(zip), iv(i))
		want[i] = [2]string{number, zip}
	}
	for i := int64(0); i < n; i++ {
		if r := query("Q1", sv("kite")); r.Len() != 1 || r.Row(0)[0].Int() != 5 {
			t.Fatalf("Q1(kite) = %v, want [[5]]", r.Vals)
		}
		w := want[i]
		if r := query("Q4", sv(w[1])); r.Len() != 1 || r.Row(0)[0].Str != w[0] || r.Row(0)[1].Str != w[1] {
			t.Fatalf("Q4(%s) = %v, want [%q]", w[1], r.Vals, w)
		}
	}
	if scrambled == 0 {
		t.Fatal("no scratch came back from the pool: the test proves nothing")
	}
	for i, w := range want {
		row := db.Table("credit_card").LookupPK([]sqlparse.Value{iv(i)})
		if row == nil || row[1].Str != w[0] || row[2].Str != w[1] {
			t.Fatalf("credit card %d reads %v from the master, want %q", i, row, w)
		}
	}
}

// TestHomeKeepsNoViewResult: the node keeps every view result the home
// returns, by pointer, so no two ExecQuery calls return results that share
// an array, and the first still holds its rows after the second has run —
// a view result never runs into the scratch the next call takes over.
func TestHomeKeepsNoViewResult(t *testing.T) {
	s, codec, app := exposedServer(t, nil) // Q2 is at view exposure
	exec := func(id int64) *engine.Result {
		t.Helper()
		sq, err := codec.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(id)})
		if err != nil {
			t.Fatal(err)
		}
		sr, _, _, err := s.ExecQuery(sq)
		if err != nil {
			t.Fatal(err)
		}
		if sr.Result == nil {
			t.Fatal("a view result came back sealed: the test proves nothing")
		}
		return sr.Result
	}
	for i := 0; i < 10; i++ {
		first := exec(5)
		want := first.Fingerprint(true)
		second := exec(5)
		if first == second || unsafe.SliceData(first.Vals) == unsafe.SliceData(second.Vals) {
			t.Fatalf("two view results share their values: %p and %p", first, second)
		}
		if first.Len() != 1 || first.Fingerprint(true) != want || first.Row(0)[0].Int() != 25 {
			t.Fatalf("the first view result reads %v after the second exec, want [[25]]", first.Vals)
		}
	}
}
