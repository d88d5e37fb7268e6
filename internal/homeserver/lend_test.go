package homeserver

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/encrypt"
	"dssp/internal/engine"
	"dssp/internal/invalidate"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// scrambleScratch overwrites the scratch the server read its last statement
// into, ran its last result into and sealed it into, each to its capacity,
// and keeps it out of the pool, so a byte of that statement, a value of
// that result or a byte of its cipher held past its answer's Release reads
// as garbage for good. It reports whether the pool gave a scratch back.
func scrambleScratch(s *Server) bool {
	sc, ok := s.scratch.Get().(*execScratch)
	if !ok {
		return false
	}
	for _, b := range [][]byte{sc.plain[:cap(sc.plain)], sc.cipher[:cap(sc.cipher)]} {
		for i := range b {
			b[i] ^= 0xA5
		}
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
// insertions and modifications carried — a modification selecting its
// rows by a string, and a deletion by one, among them. So a query's lent
// parameters are read only during its exec, its answer — a view result by
// pointer, a sealed one as its cipher, both in the scratch — only until
// its Release, and of an update's strings, all lent, the ones storage
// keeps are copied.
func TestHomeLendsOnlyForTheCall(t *testing.T) {
	app := apps.Toystore()
	app.Queries = append(app.Queries,
		template.MustNew("Q4", app.Schema, "SELECT number, zip_code FROM credit_card WHERE zip_code=?"))
	app.Updates = append(app.Updates,
		template.MustNew("U3", app.Schema, "UPDATE credit_card SET number=?, zip_code=? WHERE cid=?"),
		template.MustNew("U4", app.Schema, "UPDATE credit_card SET number=? WHERE cid=? AND zip_code=?"),
		template.MustNew("U5", app.Schema, "DELETE FROM credit_card WHERE zip_code=?"))
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
		a, err := s.ExecQuery(sq)
		if err != nil {
			t.Fatalf("%s%v: %v", id, params, err)
		}
		res, err := codec.OpenResult(a.Result)
		a.Release()
		if scrambleScratch(s) {
			scrambled++
		}
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
	for i := int64(0); i < n; i += 3 {
		number := fmt.Sprint("by-zip-", i)
		update("U4", sv(number), iv(i), sv(want[i][1]))
		want[i] = [2]string{number, want[i][1]}
	}
	for i := int64(1); i < n; i += 5 {
		update("U5", sv(want[i][1]))
		delete(want, i)
	}
	for i := int64(0); i < n; i++ {
		if r := query("Q1", sv("kite")); r.Len() != 1 || r.Row(0)[0].Int() != 5 {
			t.Fatalf("Q1(kite) = %v, want [[5]]", r.Vals)
		}
		w, ok := want[i]
		if !ok {
			continue
		}
		if r := query("Q4", sv(w[1])); r.Len() != 1 || r.Row(0)[0].Str != w[0] || r.Row(0)[1].Str != w[1] {
			t.Fatalf("Q4(%s) = %v, want [%q]", w[1], r.Vals, w)
		}
	}
	if scrambled == 0 {
		t.Fatal("no scratch came back from the pool: the test proves nothing")
	}
	if got := db.Table("credit_card").Len(); got != len(want) {
		t.Fatalf("the master holds %d credit cards, want %d", got, len(want))
	}
	for i, w := range want {
		row := db.Table("credit_card").LookupPK([]sqlparse.Value{iv(i)})
		if row == nil || row[1].Str != w[0] || row[2].Str != w[1] {
			t.Fatalf("credit card %d reads %v from the master, want %q", i, row, w)
		}
	}
}

// TestHomeCopiesOnlyWhatItStores: of an update's parameters, lent from the
// scratch its payload was read into, the home copies the strings storage
// keeps — an insertion's values, a modification's SET values — into one
// allocation, and leaves a WHERE clause's, and a deletion's, lent; an
// update that stores no string allocates nothing.
func TestHomeCopiesOnlyWhatItStores(t *testing.T) {
	app := apps.Toystore()
	sch := app.Schema
	iv, sv := sqlparse.IntVal, sqlparse.StringVal
	for _, c := range []struct {
		sql    string
		params []sqlparse.Value
		stored []bool // by position
		allocs float64
	}{
		{"INSERT INTO credit_card (cid, number, zip_code) VALUES (?, ?, ?)", []sqlparse.Value{iv(1), sv("4111"), sv("15213")}, []bool{true, true, true}, 1},
		{"UPDATE credit_card SET number=? WHERE cid=? AND zip_code=?", []sqlparse.Value{sv("4111"), iv(1), sv("15213")}, []bool{true, false, false}, 1},
		{"UPDATE toys SET qty=? WHERE toy_id=? AND toy_name=?", []sqlparse.Value{iv(3), iv(5), sv("kite")}, []bool{true, false, false}, 0},
		{"DELETE FROM credit_card WHERE zip_code=?", []sqlparse.Value{sv("15213")}, []bool{false}, 0},
		{"DELETE FROM toys WHERE toy_id=?", []sqlparse.Value{iv(5)}, []bool{false}, 0},
	} {
		u, err := engine.CompileUpdate(sch, template.MustNew("U", sch, c.sql).Stmt)
		if err != nil {
			t.Fatal(err)
		}
		var plain []byte
		for _, v := range c.params {
			plain = append(plain, v.Str...)
		}
		lent := func() []sqlparse.Value {
			params, at := slices.Clone(c.params), 0
			for i := range params {
				if n := len(params[i].Str); n > 0 {
					params[i].Str, at = unsafe.String(&plain[at], n), at+n
				}
			}
			return params
		}
		params := lent()
		keepStored(params, u.StoredParams())
		for i, v := range params {
			if v.Str == "" {
				continue
			}
			if in := lies(v.Str, plain); in == c.stored[i] || v.Str != c.params[i].Str {
				t.Fatalf("%s: parameter %d %q lies in the scratch: %v, want %v", c.sql, i, v.Str, in, !c.stored[i])
			}
		}
		if raceEnabled {
			continue
		}
		if n := testing.AllocsPerRun(100, func() { keepStored(lent(), u.StoredParams()) }); n-1 != c.allocs {
			t.Errorf("%s: keepStored allocates %v times, want %v", c.sql, n-1, c.allocs)
		}
	}
}

// lies reports whether s's bytes lie in b.
func lies(s string, b []byte) bool {
	at, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return at >= lo && at+uintptr(len(s)) <= lo+uintptr(cap(b))
}

// TestHomeLendsItsAnswer: the home lends every answer from the scratch the
// query ran in — a view result by pointer, its values in the scratch's
// array, and a sealed one as its cipher, sealed into the scratch — until
// its Release, and a node's cache entry is the one keeper of it: once the
// answer is released and the scratch overwritten, values and bytes, the
// entry the node stored from it, and the result the store handed back,
// still read [[25]].
func TestHomeLendsItsAnswer(t *testing.T) {
	for _, exp := range []template.Exposure{template.ExpView, template.ExpStmt} {
		s, codec, app := exposedServer(t, map[string]template.Exposure{"Q2": exp})
		node := cache.New(app, invalidate.New(app, core.Analyze(app, core.DefaultOptions())), cache.Options{})
		scrambled := 0
		for i := 0; i < 10; i++ {
			sq, err := codec.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(5)})
			if err != nil {
				t.Fatal(err)
			}
			a, err := s.ExecQuery(sq)
			if err != nil {
				t.Fatal(err)
			}
			if (a.Result.Result != nil) != (exp == template.ExpView) {
				t.Fatalf("%v: the answer is %+v: the test proves nothing", exp, a.Result)
			}
			kept, ok := node.Store(sq, a.Result, a.Empty)
			a.Release()
			if !ok {
				t.Fatalf("%v: the node stored nothing", exp)
			}
			if scrambleScratch(s) {
				scrambled++
			}
			stored, hit := node.Lookup(sq)
			if !hit {
				t.Fatalf("%v: the node does not hold the entry it stored", exp)
			}
			for name, sr := range map[string]wire.SealedResult{"stored entry": stored, "kept result": kept} {
				r, err := codec.OpenResult(sr)
				if err != nil {
					t.Fatalf("%v: %s: %v", exp, name, err)
				}
				if r.Len() != 1 || r.Row(0)[0].Int() != 25 {
					t.Fatalf("%v: the %s reads %v after the scratch was overwritten, want [[25]]", exp, name, r.Vals)
				}
			}
		}
		if scrambled == 0 {
			t.Fatalf("%v: no scratch came back from the pool: the test proves nothing", exp)
		}
	}
}
