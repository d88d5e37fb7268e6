package storage

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"dssp/internal/schema"
	"dssp/internal/sqlparse"
)

func toyDB(t *testing.T) *Database {
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
	return NewDatabase(s)
}

func toyRow(id int64, name string, qty int64) Row {
	return Row{sqlparse.IntVal(id), sqlparse.StringVal(name), sqlparse.IntVal(qty)}
}

func TestInsertAndScan(t *testing.T) {
	db := toyDB(t)
	for i := int64(1); i <= 5; i++ {
		if err := db.Insert("toys", toyRow(i, fmt.Sprintf("toy%d", i), i*10)); err != nil {
			t.Fatal(err)
		}
	}
	tab := db.Table("toys")
	if tab.Len() != 5 {
		t.Fatalf("Len = %d", tab.Len())
	}
	var seen []int64
	tab.Scan(func(r Row) bool {
		seen = append(seen, r[0].Int())
		return true
	})
	for i, id := range seen {
		if id != int64(i+1) {
			t.Errorf("scan order broken: %v", seen)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	db := toyDB(t)
	for i := int64(1); i <= 5; i++ {
		_ = db.Insert("toys", toyRow(i, "x", 0))
	}
	n := 0
	db.Table("toys").Scan(func(Row) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("visited %d rows, want 2", n)
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	db := toyDB(t)
	if err := db.Insert("toys", toyRow(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("toys", toyRow(1, "b", 2)); err == nil {
		t.Error("duplicate primary key accepted")
	}
}

// TestPrimaryKeyNegativeZero: -0.0 and 0.0 compare equal, so they are one
// primary key.
func TestPrimaryKeyNegativeZero(t *testing.T) {
	s := schema.New()
	s.MustAddTable("m", []schema.Column{{Name: "x", Type: schema.TFloat}}, "x")
	db := NewDatabase(s)
	if err := db.Insert("m", Row{sqlparse.FloatVal(0)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("m", Row{sqlparse.FloatVal(math.Copysign(0, -1))}); err == nil {
		t.Error("-0.0 accepted beside 0.0 as a second primary key")
	}
}

func TestTypeChecking(t *testing.T) {
	db := toyDB(t)
	bad := Row{sqlparse.StringVal("not-an-int"), sqlparse.StringVal("a"), sqlparse.IntVal(1)}
	if err := db.Insert("toys", bad); err == nil {
		t.Error("type mismatch accepted")
	}
	short := Row{sqlparse.IntVal(1)}
	if err := db.Insert("toys", short); err == nil {
		t.Error("short row accepted")
	}
}

func TestForeignKeyEnforcement(t *testing.T) {
	db := toyDB(t)
	cc := Row{sqlparse.IntVal(7), sqlparse.StringVal("4111"), sqlparse.StringVal("15213")}
	if err := db.Insert("credit_card", cc); err == nil {
		t.Error("dangling foreign key accepted")
	}
	if err := db.Insert("customers", Row{sqlparse.IntVal(7), sqlparse.StringVal("alice")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("credit_card", cc); err != nil {
		t.Errorf("valid foreign key rejected: %v", err)
	}
}

func TestLookupPK(t *testing.T) {
	db := toyDB(t)
	_ = db.Insert("toys", toyRow(42, "truck", 9))
	r := db.Table("toys").LookupPK([]sqlparse.Value{sqlparse.IntVal(42)})
	if r == nil || r[1].Str != "truck" {
		t.Fatalf("LookupPK = %v", r)
	}
	if db.Table("toys").LookupPK([]sqlparse.Value{sqlparse.IntVal(1)}) != nil {
		t.Error("missing key found")
	}
}

func TestDelete(t *testing.T) {
	db := toyDB(t)
	for i := int64(1); i <= 10; i++ {
		_ = db.Insert("toys", toyRow(i, "x", i))
	}
	n, err := deleteWhere(db, "toys", func(r Row) bool { return r[2].Int() > 5 })
	if err != nil || n != 5 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	if db.Table("toys").Len() != 5 {
		t.Errorf("Len = %d", db.Table("toys").Len())
	}
	// Deleted keys can be reinserted.
	if err := db.Insert("toys", toyRow(10, "back", 1)); err != nil {
		t.Errorf("reinsert after delete failed: %v", err)
	}
}

// deleteWhere deletes the rows of table that match, as a scan finds them.
func deleteWhere(db *Database, table string, match func(Row) bool) (int, error) {
	var rows []Row
	if t := db.Table(table); t != nil {
		t.Scan(func(r Row) bool {
			if match(r) {
				rows = append(rows, r)
			}
			return true
		})
	}
	return db.Delete(table, rows)
}

// updateKey assigns v to column col of the row with primary key id, if
// there is one.
func updateKey(db *Database, table string, id int64, col int, v sqlparse.Value) (int, error) {
	var rows []Row
	if r := db.Table(table).LookupPK([]sqlparse.Value{sqlparse.IntVal(id)}); r != nil {
		rows = append(rows, r)
	}
	return db.Update(table, rows, []int{col}, []sqlparse.Value{v})
}

func TestUpdateByPK(t *testing.T) {
	db := toyDB(t)
	_ = db.Insert("toys", toyRow(1, "bear", 3))
	n, err := updateKey(db, "toys", 1, 2, sqlparse.IntVal(99))
	if err != nil || n != 1 {
		t.Fatalf("Update = %d, %v", n, err)
	}
	if r := db.Table("toys").LookupPK([]sqlparse.Value{sqlparse.IntVal(1)}); r[2].Int() != 99 {
		t.Errorf("qty = %v", r[2])
	}
	n, err = updateKey(db, "toys", 404, 2, sqlparse.IntVal(1))
	if err != nil || n != 0 {
		t.Errorf("update of missing row = %d, %v", n, err)
	}
	if n, err := updateKey(db, "toys", 1, 2, sqlparse.StringVal("x")); err == nil || n != 0 {
		t.Errorf("update with a string into an INT column = %d, %v", n, err)
	}
}

// Delete and Update change rows in slot order whatever order they are
// handed in, so a statement's rows found through an index leave every
// index as the same rows found by a scan would.
func TestChangesGoInSlotOrder(t *testing.T) {
	build := func() *Database {
		db := toyDB(t)
		for i := int64(1); i <= 12; i++ {
			_ = db.Insert("toys", toyRow(i, fmt.Sprintf("name%d", i%2), i%3))
		}
		_ = db.Table("toys").CreateIndex("toy_name")
		_ = db.Table("toys").CreateIndex("qty")
		return db
	}
	order := func(db *Database) string {
		var out []int64
		tab := db.Table("toys")
		for _, v := range []string{"name0", "name1"} {
			tab.LookupIndex(1, sqlparse.StringVal(v), func(r Row) bool { out = append(out, r[0].Int()); return true })
		}
		for q := int64(0); q < 3; q++ {
			tab.LookupIndex(2, sqlparse.IntVal(q), func(r Row) bool { out = append(out, r[0].Int()); return true })
		}
		return fmt.Sprint(out)
	}
	for _, change := range []func(db *Database, rows []Row) (int, error){
		func(db *Database, rows []Row) (int, error) { return db.Delete("toys", rows) },
		func(db *Database, rows []Row) (int, error) {
			return db.Update("toys", rows, []int{2}, []sqlparse.Value{sqlparse.IntVal(7)})
		},
	} {
		scanned, probed := build(), build()
		var byScan, byIndex []Row
		scanned.Table("toys").Scan(func(r Row) bool {
			if r[1].Str == "name0" {
				byScan = append(byScan, r)
			}
			return true
		})
		probed.Table("toys").LookupIndex(1, sqlparse.StringVal("name0"), func(r Row) bool { byIndex = append(byIndex, r); return true })
		slices.Reverse(byIndex)
		if _, err := change(scanned, byScan); err != nil {
			t.Fatal(err)
		}
		if n, err := change(probed, byIndex); err != nil || n != len(byScan) {
			t.Fatalf("changed %d rows, %v; want %d", n, err, len(byScan))
		}
		if a, b := order(scanned), order(probed); a != b {
			t.Errorf("rows in scan order leave the indexes yielding %s, in reverse probe order %s", a, b)
		}
	}
}

// A modification re-keys only the indexes on the columns it sets, and
// leaves every index holding what CreateIndex would build. A modified row
// moves to the end of its list in every index, as taking it out and
// putting it back did before, because the order an index yields rows in
// is the order of the results read through it; and a modification of an
// unindexed column allocates nothing.
func TestUpdateByPKReindexesOnlyWhatChanged(t *testing.T) {
	db := toyDB(t)
	tab := db.Table("toys")
	for i := int64(1); i <= 12; i++ {
		_ = db.Insert("toys", toyRow(i, fmt.Sprintf("name%d", i%3), i))
	}
	if err := tab.CreateIndex("toy_name"); err != nil {
		t.Fatal(err)
	}
	name, qty := tab.Meta.ColumnIndex("toy_name"), tab.Meta.ColumnIndex("qty")
	ids := func(tab *Table, v string) []int64 {
		var out []int64
		tab.LookupIndex(name, sqlparse.StringVal(v), func(r Row) bool { out = append(out, r[0].Int()); return true })
		return out
	}
	update := func(id int64, col int, v sqlparse.Value) {
		t.Helper()
		if n, err := updateKey(db, "toys", id, col, v); err != nil || n != 1 {
			t.Fatalf("Update(%d) = %d, %v", id, n, err)
		}
	}
	sameRows := func(when string) {
		t.Helper()
		fresh := db.Clone().Table("toys")
		for _, v := range []string{"name0", "name1", "name2", "renamed"} {
			got := ids(tab, v)
			slices.Sort(got)
			if want := ids(fresh, v); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("after %s, LookupIndex(%s) = %v, a fresh index reads %v", when, v, got, want)
			}
		}
	}

	update(1, qty, sqlparse.IntVal(101))
	if got := ids(tab, "name1"); fmt.Sprint(got) != "[10 4 7 1]" {
		t.Errorf("after modifying qty of toy 1, LookupIndex(name1) = %v, want [10 4 7 1]", got)
	}
	for _, id := range []int64{4, 7, 4} {
		update(id, qty, sqlparse.IntVal(100+id))
	}
	sameRows("modifying qty")

	for _, id := range []int64{1, 5, 10} {
		update(id, name, sqlparse.StringVal("renamed"))
	}
	update(4, name, sqlparse.StringVal("name1")) // the value it had
	sameRows("modifying toy_name")
	if got := ids(tab, "renamed"); len(got) != 3 {
		t.Errorf("LookupIndex(renamed) = %v, want 3 rows", got)
	}

	rows := []Row{tab.LookupPK([]sqlparse.Value{sqlparse.IntVal(7)})}
	cols, vals := []int{qty}, []sqlparse.Value{sqlparse.IntVal(0)}
	if n := testing.AllocsPerRun(100, func() { _, _ = db.Update("toys", rows, cols, vals) }); n != 0 {
		t.Errorf("modifying an unindexed column allocates %v times, want 0", n)
	}
}

func TestSecondaryIndex(t *testing.T) {
	db := toyDB(t)
	tab := db.Table("toys")
	for i := int64(1); i <= 20; i++ {
		_ = db.Insert("toys", toyRow(i, fmt.Sprintf("name%d", i%3), i))
	}
	if err := tab.CreateIndex("toy_name"); err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex("missing"); err == nil {
		t.Error("index on missing column accepted")
	}
	count := func(name string) int {
		n := 0
		used := tab.LookupIndex(tab.Meta.ColumnIndex("toy_name"), sqlparse.StringVal(name), func(Row) bool { n++; return true })
		if !used {
			t.Fatal("index not used")
		}
		return n
	}
	if got := count("name1"); got != 7 {
		t.Errorf("count(name1) = %d, want 7", got)
	}
	// Index stays correct across delete/insert/update.
	_, _ = deleteWhere(db, "toys", func(r Row) bool { return r[0].Int() == 1 }) // name1
	if got := count("name1"); got != 6 {
		t.Errorf("after delete count = %d, want 6", got)
	}
	_ = db.Insert("toys", toyRow(100, "name1", 5))
	if got := count("name1"); got != 7 {
		t.Errorf("after insert count = %d, want 7", got)
	}
	_, _ = updateKey(db, "toys", 100, 1, sqlparse.StringVal("renamed"))
	if got := count("name1"); got != 6 {
		t.Errorf("after rename count = %d, want 6", got)
	}
	if got := count("renamed"); got != 1 {
		t.Errorf("count(renamed) = %d, want 1", got)
	}
}

func TestLookupIndexUnindexed(t *testing.T) {
	db := toyDB(t)
	_ = db.Insert("toys", toyRow(1, "a", 1))
	used := db.Table("toys").LookupIndex(2, sqlparse.IntVal(1), func(Row) bool { return true })
	if used {
		t.Error("LookupIndex claimed success without an index")
	}
}

func TestInsertClonesRow(t *testing.T) {
	db := toyDB(t)
	r := toyRow(1, "a", 1)
	_ = db.Insert("toys", r)
	r[2] = sqlparse.IntVal(999) // caller mutation must not leak in
	if got := db.Table("toys").LookupPK([]sqlparse.Value{sqlparse.IntVal(1)}); got[2].Int() != 1 {
		t.Error("insert did not copy the row")
	}
}

func TestClone(t *testing.T) {
	db := toyDB(t)
	for i := int64(1); i <= 5; i++ {
		_ = db.Insert("toys", toyRow(i, "x", i))
	}
	_ = db.Table("toys").CreateIndex("qty")
	c := db.Clone()
	_, _ = deleteWhere(db, "toys", func(Row) bool { return true })
	if c.Table("toys").Len() != 5 {
		t.Errorf("clone affected by original: %d", c.Table("toys").Len())
	}
	n := 0
	c.Table("toys").LookupIndex(2, sqlparse.IntVal(3), func(Row) bool { n++; return true })
	if n != 1 {
		t.Errorf("clone index lookup = %d", n)
	}
}

func TestUnknownTableErrors(t *testing.T) {
	db := toyDB(t)
	if err := db.Insert("nope", Row{}); err == nil {
		t.Error("insert into unknown table accepted")
	}
	if _, err := db.Delete("nope", nil); err == nil {
		t.Error("delete from unknown table accepted")
	}
	if _, err := db.Update("nope", nil, nil, nil); err == nil {
		t.Error("update of unknown table accepted")
	}
}

func TestKeyInjective(t *testing.T) {
	// Key must be injective: distinct value vectors produce distinct keys.
	f := func(a1, a2 int64, s1, s2 string) bool {
		v1 := []sqlparse.Value{sqlparse.IntVal(a1), sqlparse.StringVal(s1)}
		v2 := []sqlparse.Value{sqlparse.IntVal(a2), sqlparse.StringVal(s2)}
		if a1 == a2 && s1 == s2 {
			return Key(v1) == Key(v2)
		}
		return Key(v1) != Key(v2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Strings containing the separator must not collide.
	a := []sqlparse.Value{sqlparse.StringVal("a|"), sqlparse.StringVal("b")}
	b := []sqlparse.Value{sqlparse.StringVal("a"), sqlparse.StringVal("|b")}
	if Key(a) == Key(b) {
		t.Error("separator collision")
	}
}
