package engine

import (
	"fmt"
	"testing"

	"dssp/internal/schema"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
)

// toyDB builds the paper's toystore database (Table 3) with sample data.
func toyDB(t testing.TB) *storage.Database {
	t.Helper()
	s := schema.New()
	s.MustAddTable("toys", []schema.Column{
		{Name: "toy_id", Type: schema.TInt},
		{Name: "toy_name", Type: schema.TString},
		{Name: "qty", Type: schema.TInt},
	}, "toy_id")
	s.MustAddTable("customers", []schema.Column{
		{Name: "cust_id", Type: schema.TInt},
		{Name: "cust_name", Type: schema.TString},
	}, "cust_id")
	s.MustAddTable("credit_card", []schema.Column{
		{Name: "cid", Type: schema.TInt},
		{Name: "number", Type: schema.TString},
		{Name: "zip_code", Type: schema.TString},
	}, "cid")
	s.MustAddForeignKey("credit_card", "cid", "customers", "cust_id")
	db := storage.NewDatabase(s)
	toys := []struct {
		id   int64
		name string
		qty  int64
	}{
		{1, "bear", 10}, {2, "truck", 3}, {3, "bear", 7}, {4, "doll", 3}, {5, "kite", 25},
	}
	for _, x := range toys {
		mustInsert(t, db, "toys", storage.Row{sqlparse.IntVal(x.id), sqlparse.StringVal(x.name), sqlparse.IntVal(x.qty)})
	}
	for i := int64(1); i <= 3; i++ {
		mustInsert(t, db, "customers", storage.Row{sqlparse.IntVal(i), sqlparse.StringVal(fmt.Sprintf("cust%d", i))})
		mustInsert(t, db, "credit_card", storage.Row{
			sqlparse.IntVal(i), sqlparse.StringVal(fmt.Sprintf("4111-%d", i)), sqlparse.StringVal(fmt.Sprintf("152%02d", i)),
		})
	}
	return db
}

func mustInsert(t testing.TB, db *storage.Database, table string, r storage.Row) {
	t.Helper()
	if err := db.Insert(table, r); err != nil {
		t.Fatal(err)
	}
}

func query(t testing.TB, db *storage.Database, src string, params ...sqlparse.Value) *Result {
	t.Helper()
	q := sqlparse.MustParse(src).(*sqlparse.SelectStmt)
	res, err := ExecQuery(db, q, params)
	if err != nil {
		t.Fatalf("ExecQuery(%q): %v", src, err)
	}
	return res
}

func update(t testing.TB, db *storage.Database, src string, params ...sqlparse.Value) int {
	t.Helper()
	n, err := ExecUpdate(db, sqlparse.MustParse(src), params)
	if err != nil {
		t.Fatalf("ExecUpdate(%q): %v", src, err)
	}
	return n
}

func TestSelectEqualityParam(t *testing.T) {
	db := toyDB(t)
	res := query(t, db, "SELECT toy_id FROM toys WHERE toy_name=?", sqlparse.StringVal("bear"))
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
	ids := map[int64]bool{}
	for i := range res.Len() {
		r := res.Row(i)
		ids[r[0].Int()] = true
	}
	if !ids[1] || !ids[3] {
		t.Errorf("ids = %v", ids)
	}
}

func TestSelectByPrimaryKeyUsesIndex(t *testing.T) {
	db := toyDB(t)
	res := query(t, db, "SELECT qty FROM toys WHERE toy_id=?", sqlparse.IntVal(5))
	if res.Len() != 1 || res.Row(0)[0].Int() != 25 {
		t.Fatalf("res = %+v", res.Vals)
	}
	if res.RowsScanned != 1 {
		t.Errorf("RowsScanned = %d, want 1 (PK path)", res.RowsScanned)
	}
}

func TestSelectStar(t *testing.T) {
	db := toyDB(t)
	res := query(t, db, "SELECT * FROM toys WHERE toy_id=?", sqlparse.IntVal(2))
	if len(res.Columns) != 3 || res.Columns[1] != "toy_name" {
		t.Errorf("columns = %v", res.Columns)
	}
	if res.Row(0)[1].Str != "truck" {
		t.Errorf("row = %v", res.Row(0))
	}
}

func TestSelectInequality(t *testing.T) {
	db := toyDB(t)
	res := query(t, db, "SELECT toy_id FROM toys WHERE qty>?", sqlparse.IntVal(5))
	if res.Len() != 3 { // 10, 7, 25
		t.Errorf("rows = %d, want 3", res.Len())
	}
}

func TestEquiJoinWithForeignKey(t *testing.T) {
	db := toyDB(t)
	res := query(t, db, "SELECT cust_name FROM customers, credit_card WHERE cust_id=cid AND zip_code=?",
		sqlparse.StringVal("15202"))
	if res.Len() != 1 || res.Row(0)[0].Str != "cust2" {
		t.Fatalf("res = %+v", res.Vals)
	}
}

func TestSelfJoinInequality(t *testing.T) {
	// The paper's §4.4 example query (a): self-join comparing quantities.
	db := toyDB(t)
	res := query(t, db,
		"SELECT t1.toy_id, t1.qty, t2.toy_id, t2.qty FROM toys AS t1, toys AS t2 WHERE t1.toy_name=? AND t2.toy_name=? AND t1.qty>t2.qty",
		sqlparse.StringVal("bear"), sqlparse.StringVal("truck"))
	if res.Len() != 2 { // (1,10)>(2,3) and (3,7)>(2,3)
		t.Fatalf("rows = %d, want 2: %+v", res.Len(), res.Vals)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := toyDB(t)
	res := query(t, db, "SELECT toy_id, qty FROM toys ORDER BY qty DESC, toy_id LIMIT 3")
	want := []int64{5, 1, 3}
	for i := range res.Len() {
		r := res.Row(i)
		if r[0].Int() != want[i] {
			t.Errorf("row %d = %v, want toy %d", i, r, want[i])
		}
	}
}

func TestOrderByAscStableTies(t *testing.T) {
	db := toyDB(t)
	res := query(t, db, "SELECT toy_id FROM toys ORDER BY qty")
	// qty: 3(truck,id2) 3(doll,id4) 7 10 25; ties keep insertion order.
	want := []int64{2, 4, 3, 1, 5}
	for i := range res.Len() {
		r := res.Row(i)
		if r[0].Int() != want[i] {
			t.Fatalf("order = %v", res.Vals)
		}
	}
}

func TestAggregateMax(t *testing.T) {
	db := toyDB(t)
	res := query(t, db, "SELECT MAX(qty) FROM toys")
	if res.Len() != 1 || res.Row(0)[0].Int() != 25 {
		t.Fatalf("res = %+v", res.Vals)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	db := toyDB(t)
	res := query(t, db, "SELECT MAX(qty) FROM toys WHERE toy_name=?", sqlparse.StringVal("nosuch"))
	if res.Len() != 1 || !res.Row(0)[0].IsNull() {
		t.Fatalf("MAX over empty = %+v", res.Vals)
	}
	res = query(t, db, "SELECT COUNT(*) FROM toys WHERE toy_name=?", sqlparse.StringVal("nosuch"))
	if res.Row(0)[0].Int() != 0 {
		t.Fatalf("COUNT over empty = %+v", res.Vals)
	}
}

func TestGroupBy(t *testing.T) {
	db := toyDB(t)
	res := query(t, db, "SELECT toy_name, SUM(qty) AS total, COUNT(*) AS n FROM toys GROUP BY toy_name ORDER BY total DESC")
	if res.Len() != 4 {
		t.Fatalf("groups = %d: %+v", res.Len(), res.Vals)
	}
	if res.Row(0)[0].Str != "kite" || res.Row(0)[1].Int() != 25 {
		t.Errorf("top group = %v", res.Row(0))
	}
	// bear: 10+7=17, 2 rows
	var bear []sqlparse.Value
	for i := range res.Len() {
		r := res.Row(i)
		if r[0].Str == "bear" {
			bear = r
		}
	}
	if bear == nil || bear[1].Int() != 17 || bear[2].Int() != 2 {
		t.Errorf("bear group = %v", bear)
	}
}

func TestGroupByTopK(t *testing.T) {
	db := toyDB(t)
	res := query(t, db, "SELECT toy_name, SUM(qty) AS total FROM toys GROUP BY toy_name ORDER BY total DESC LIMIT 2")
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
	if res.Row(0)[0].Str != "kite" || res.Row(1)[0].Str != "bear" {
		t.Errorf("rows = %+v", res.Vals)
	}
}

func TestAvgAndSumFloat(t *testing.T) {
	db := toyDB(t)
	res := query(t, db, "SELECT AVG(qty) FROM toys")
	want := (10.0 + 3 + 7 + 3 + 25) / 5
	if res.Row(0)[0].Float() != want {
		t.Errorf("avg = %v, want %v", res.Row(0)[0], want)
	}
	res = query(t, db, "SELECT SUM(qty) FROM toys")
	if res.Row(0)[0].Kind != sqlparse.KindInt || res.Row(0)[0].Int() != 48 {
		t.Errorf("sum = %v", res.Row(0)[0])
	}
}

func TestNonAggregatedColumnOutsideGroupByRejected(t *testing.T) {
	db := toyDB(t)
	q := sqlparse.MustParse("SELECT toy_id, SUM(qty) FROM toys GROUP BY toy_name").(*sqlparse.SelectStmt)
	if _, err := ExecQuery(db, q, nil); err == nil {
		t.Error("non-grouped column accepted")
	}
}

func TestInsertExec(t *testing.T) {
	db := toyDB(t)
	n := update(t, db, "INSERT INTO toys (toy_id, toy_name, qty) VALUES (?, ?, ?)",
		sqlparse.IntVal(6), sqlparse.StringVal("ball"), sqlparse.IntVal(4))
	if n != 1 {
		t.Fatalf("n = %d", n)
	}
	res := query(t, db, "SELECT qty FROM toys WHERE toy_id=?", sqlparse.IntVal(6))
	if res.Len() != 1 || res.Row(0)[0].Int() != 4 {
		t.Errorf("res = %+v", res.Vals)
	}
}

func TestInsertColumnOrderIndependent(t *testing.T) {
	db := toyDB(t)
	update(t, db, "INSERT INTO toys (qty, toy_id, toy_name) VALUES (?, ?, ?)",
		sqlparse.IntVal(4), sqlparse.IntVal(7), sqlparse.StringVal("ball"))
	res := query(t, db, "SELECT qty FROM toys WHERE toy_id=?", sqlparse.IntVal(7))
	if res.Len() != 1 || res.Row(0)[0].Int() != 4 {
		t.Errorf("res = %+v", res.Vals)
	}
}

func TestDeleteExec(t *testing.T) {
	db := toyDB(t)
	n := update(t, db, "DELETE FROM toys WHERE toy_id=?", sqlparse.IntVal(5))
	if n != 1 {
		t.Fatalf("n = %d", n)
	}
	if res := query(t, db, "SELECT toy_id FROM toys WHERE toy_id=?", sqlparse.IntVal(5)); res.Len() != 0 {
		t.Error("row not deleted")
	}
}

func TestDeleteByPredicate(t *testing.T) {
	db := toyDB(t)
	n := update(t, db, "DELETE FROM toys WHERE qty<?", sqlparse.IntVal(5))
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
}

func TestModifyExec(t *testing.T) {
	db := toyDB(t)
	n := update(t, db, "UPDATE toys SET qty=? WHERE toy_id=?", sqlparse.IntVal(100), sqlparse.IntVal(2))
	if n != 1 {
		t.Fatalf("n = %d", n)
	}
	res := query(t, db, "SELECT qty FROM toys WHERE toy_id=?", sqlparse.IntVal(2))
	if res.Row(0)[0].Int() != 100 {
		t.Errorf("qty = %v", res.Row(0)[0])
	}
	// Modifying a missing row affects nothing.
	if n := update(t, db, "UPDATE toys SET qty=? WHERE toy_id=?", sqlparse.IntVal(1), sqlparse.IntVal(404)); n != 0 {
		t.Errorf("n = %d, want 0", n)
	}
}

func TestInsertedRow(t *testing.T) {
	db := toyDB(t)
	u, err := CompileUpdate(db.Schema, sqlparse.MustParse("INSERT INTO toys (qty, toy_id, toy_name) VALUES (?, ?, ?)"))
	if err != nil {
		t.Fatal(err)
	}
	row, err := u.InsertedRow(nil, []sqlparse.Value{sqlparse.IntVal(4), sqlparse.IntVal(9), sqlparse.StringVal("x")})
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Int() != 9 || row[1].Str != "x" || row[2].Int() != 4 {
		t.Errorf("row = %v", row)
	}
}

// A row matches a deletion's WHERE, and is removed, exactly when the
// predicate holds for it under the statement's parameters.
func TestRowMatches(t *testing.T) {
	for _, c := range []struct {
		bound int64
		left  string
	}{{5, "[2 4]"}, {50, "[1 2 3 4 5]"}} {
		db := toyDB(t)
		u, err := CompileUpdate(db.Schema, sqlparse.MustParse("DELETE FROM toys WHERE qty>?"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := u.Run(db, []sqlparse.Value{sqlparse.IntVal(c.bound)}); err != nil {
			t.Fatal(err)
		}
		var left []int64
		db.Table("toys").Scan(func(r storage.Row) bool { left = append(left, r[0].Int()); return true })
		if got := fmt.Sprint(left); got != c.left {
			t.Errorf("DELETE WHERE qty>%d leaves toys %s, want %s", c.bound, got, c.left)
		}
	}
}

// A modification changes a row only when every predicate of its WHERE
// holds, not only the key equality its access path probes by.
func TestModificationChecksEveryPredicate(t *testing.T) {
	db := toyDB(t)
	if n := update(t, db, "UPDATE toys SET qty=? WHERE toy_id=? AND qty=?",
		sqlparse.IntVal(99), sqlparse.IntVal(1), sqlparse.IntVal(5)); n != 0 {
		t.Errorf("qty=5 against toy 1's qty 10: %d rows affected, want 0", n)
	}
	if n := update(t, db, "UPDATE toys SET toy_name=? WHERE toy_id=? AND toy_id=?",
		sqlparse.StringVal("teddy"), sqlparse.IntVal(1), sqlparse.IntVal(2)); n != 0 {
		t.Errorf("toy_id=1 AND toy_id=2: %d rows affected, want 0", n)
	}
	res := query(t, db, "SELECT toy_id, toy_name, qty FROM toys WHERE toy_id<=? ORDER BY toy_id", sqlparse.IntVal(2))
	if got := res.Fingerprint(true); got != query(t, toyDB(t), "SELECT toy_id, toy_name, qty FROM toys WHERE toy_id<=? ORDER BY toy_id", sqlparse.IntVal(2)).Fingerprint(true) {
		t.Errorf("toys 1 and 2 changed: %v", res.Vals)
	}
	// A range over the key is not a modification the validator accepts,
	// and the engine refuses it too, where it used to modify the row its
	// bound names.
	if n, err := ExecUpdate(db, sqlparse.MustParse("UPDATE toys SET qty=? WHERE toy_id<?"),
		[]sqlparse.Value{sqlparse.IntVal(0), sqlparse.IntVal(3)}); err == nil {
		t.Errorf("toy_id<3 ran, %d rows affected", n)
	}
	if res := query(t, db, "SELECT toy_id FROM toys WHERE qty=?", sqlparse.IntVal(0)); res.Len() != 0 {
		t.Errorf("rows at qty 0: %v, want none", res.Vals)
	}
}

func TestCompileUpdateRejects(t *testing.T) {
	db := toyDB(t)
	stmts := []sqlparse.Statement{
		// The parser refuses this one; a hand-built template could not.
		&sqlparse.InsertStmt{Table: "toys", Columns: []string{"toy_id", "toy_id"},
			Values: []sqlparse.Operand{{Kind: sqlparse.OpParam, Param: 0}, {Kind: sqlparse.OpParam, Param: 1}}},
	}
	for _, src := range []string{
		"UPDATE toys SET toy_id=? WHERE toy_id=?",
		"UPDATE toys SET qty=?, qty=? WHERE toy_id=?",
		"UPDATE toys SET nosuch=? WHERE toy_id=?",
		"UPDATE toys SET qty=? WHERE nosuch=?",
		"INSERT INTO toys (toy_name) VALUES (?)",
		"DELETE FROM nosuch WHERE a=?",
		"SELECT qty FROM toys",
	} {
		stmts = append(stmts, sqlparse.MustParse(src))
	}
	for _, st := range stmts {
		if _, err := CompileUpdate(db.Schema, st); err == nil {
			t.Errorf("%s compiled", st)
		}
	}
}

func TestMissingParamError(t *testing.T) {
	db := toyDB(t)
	q := sqlparse.MustParse("SELECT toy_id FROM toys WHERE toy_name=?").(*sqlparse.SelectStmt)
	if _, err := ExecQuery(db, q, nil); err == nil {
		t.Error("missing parameter accepted")
	}
}

func TestNullComparisonsAreFalse(t *testing.T) {
	db := toyDB(t)
	mustInsert(t, db, "toys", storage.Row{sqlparse.IntVal(99), sqlparse.Null(), sqlparse.IntVal(1)})
	res := query(t, db, "SELECT toy_id FROM toys WHERE toy_name=?", sqlparse.StringVal("bear"))
	for i := range res.Len() {
		r := res.Row(i)
		if r[0].Int() == 99 {
			t.Error("NULL name matched equality")
		}
	}
}

func TestFingerprintMultisetSemantics(t *testing.T) {
	col := []string{"n"}
	a := &Result{Columns: col, Vals: []sqlparse.Value{sqlparse.IntVal(1), sqlparse.IntVal(2)}}
	b := &Result{Columns: col, Vals: []sqlparse.Value{sqlparse.IntVal(2), sqlparse.IntVal(1)}}
	if a.Fingerprint(false) != b.Fingerprint(false) {
		t.Error("unordered fingerprints differ")
	}
	if a.Fingerprint(true) == b.Fingerprint(true) {
		t.Error("ordered fingerprints should differ")
	}
	c := &Result{Columns: col, Vals: []sqlparse.Value{sqlparse.IntVal(1), sqlparse.IntVal(1), sqlparse.IntVal(2)}}
	if a.Fingerprint(false) == c.Fingerprint(false) {
		t.Error("duplicate row counts must matter (multiset)")
	}
}

func TestSecondaryIndexPathMatchesScan(t *testing.T) {
	db := toyDB(t)
	noIdx := query(t, db, "SELECT toy_id FROM toys WHERE toy_name=?", sqlparse.StringVal("bear"))
	if err := db.Table("toys").CreateIndex("toy_name"); err != nil {
		t.Fatal(err)
	}
	withIdx := query(t, db, "SELECT toy_id FROM toys WHERE toy_name=?", sqlparse.StringVal("bear"))
	if noIdx.Fingerprint(false) != withIdx.Fingerprint(false) {
		t.Error("index path changed the result")
	}
	if withIdx.RowsScanned >= noIdx.RowsScanned {
		t.Errorf("index did not reduce scanned rows: %d vs %d", withIdx.RowsScanned, noIdx.RowsScanned)
	}
}

func TestJoinIndexNestedLoop(t *testing.T) {
	db := toyDB(t)
	// cust_id is the PK of customers, so the join should use the PK path for
	// whichever side binds second.
	res := query(t, db, "SELECT cust_name, number FROM credit_card, customers WHERE cid=cust_id")
	if res.Len() != 3 {
		t.Fatalf("rows = %d", res.Len())
	}
	if res.RowsScanned > 6 {
		t.Errorf("RowsScanned = %d; PK join path not used", res.RowsScanned)
	}
}
