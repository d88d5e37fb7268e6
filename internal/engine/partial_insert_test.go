package engine

import (
	"strings"
	"testing"

	"dssp/internal/sqlparse"
)

// Partial-column insertions: columns the statement does not name become
// NULL, and the engine's NULL semantics (a NULL satisfies no predicate and
// enters no aggregate) must hold for the stored row.

func TestPartialInsertNullFill(t *testing.T) {
	db := toyDB(t)
	s := sqlparse.MustParse("INSERT INTO toys (toy_id, toy_name) VALUES (?, ?)").(*sqlparse.InsertStmt)
	params := []sqlparse.Value{sqlparse.IntVal(8), sqlparse.StringVal("glider")}
	u, err := CompileUpdate(db.Schema, s)
	if err != nil {
		t.Fatal(err)
	}
	row, err := u.InsertedRow(nil, params)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Int() != 8 || row[1].Str != "glider" || !row[2].IsNull() {
		t.Fatalf("row = %v, want qty NULL", row)
	}
	if n, err := ExecUpdate(db, s, params); err != nil || n != 1 {
		t.Fatalf("ExecUpdate = %d, %v", n, err)
	}

	// The row exists...
	if res := query(t, db, "SELECT toy_id FROM toys WHERE toy_id=?", sqlparse.IntVal(8)); res.Len() != 1 {
		t.Errorf("inserted row not found: %+v", res.Vals)
	}
	// ...but its NULL qty satisfies no predicate in either direction...
	for _, src := range []string{
		"SELECT toy_id FROM toys WHERE qty<? AND toy_id=?",
		"SELECT toy_id FROM toys WHERE qty>=? AND toy_id=?",
	} {
		if res := query(t, db, src, sqlparse.IntVal(1000), sqlparse.IntVal(8)); res.Len() != 0 {
			t.Errorf("%s matched the NULL row: %+v", src, res.Vals)
		}
	}
	// ...and does not perturb aggregates over qty.
	before := query(t, db, "SELECT MAX(qty) FROM toys")
	if before.Row(0)[0].Int() != 25 {
		t.Errorf("MAX(qty) = %v, want 25 (NULL must not participate)", before.Row(0)[0])
	}
}

func TestPartialInsertRequiresKey(t *testing.T) {
	db := toyDB(t)
	s := sqlparse.MustParse("INSERT INTO toys (toy_name, qty) VALUES (?, ?)").(*sqlparse.InsertStmt)
	params := []sqlparse.Value{sqlparse.StringVal("orphan"), sqlparse.IntVal(1)}
	if _, err := CompileUpdate(db.Schema, s); err == nil || !strings.Contains(err.Error(), "key column") {
		t.Errorf("CompileUpdate err = %v, want key-column error", err)
	}
	if _, err := ExecUpdate(db, s, params); err == nil {
		t.Error("ExecUpdate accepted an insert without its primary key")
	}
}
