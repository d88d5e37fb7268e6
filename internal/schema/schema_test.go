package schema

import (
	"testing"

	"dssp/internal/sqlparse"
)

// toystoreSchema builds the schema of the paper's example application
// (Table 3): toys, customers, credit_card with a foreign key
// credit_card.cid -> customers.cust_id.
func toystoreSchema(t *testing.T) *Schema {
	t.Helper()
	s := New()
	s.MustAddTable("toys", []Column{
		{"toy_id", TInt}, {"toy_name", TString}, {"qty", TInt},
	}, "toy_id")
	s.MustAddTable("customers", []Column{
		{"cust_id", TInt}, {"cust_name", TString},
	}, "cust_id")
	s.MustAddTable("credit_card", []Column{
		{"cid", TInt}, {"number", TString}, {"zip_code", TString},
	}, "cid")
	s.MustAddForeignKey("credit_card", "cid", "customers", "cust_id")
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := toystoreSchema(t)
	toys := s.Table("toys")
	if toys == nil {
		t.Fatal("toys missing")
	}
	if got := toys.ColumnIndex("qty"); got != 2 {
		t.Errorf("ColumnIndex(qty) = %d", got)
	}
	if got := toys.ColumnIndex("nope"); got != -1 {
		t.Errorf("ColumnIndex(nope) = %d", got)
	}
	if !toys.IsPrimaryKeyColumn("toy_id") || toys.IsPrimaryKeyColumn("qty") {
		t.Error("IsPrimaryKeyColumn wrong")
	}
	if len(s.Tables()) != 3 || s.Tables()[0].Name != "toys" {
		t.Errorf("Tables() = %v", s.Tables())
	}
	if len(s.ForeignKeys) != 1 {
		t.Fatalf("foreign keys: %v", s.ForeignKeys)
	}
	if s.ForeignKeys[0].String() != "credit_card.cid -> customers.cust_id" {
		t.Errorf("fk string: %s", s.ForeignKeys[0])
	}
}

func TestSchemaDuplicateTable(t *testing.T) {
	s := New()
	s.MustAddTable("t", []Column{{"a", TInt}}, "a")
	if _, err := s.AddTable("t", []Column{{"a", TInt}}, "a"); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestSchemaDuplicateColumn(t *testing.T) {
	s := New()
	if _, err := s.AddTable("t", []Column{{"a", TInt}, {"a", TInt}}, "a"); err == nil {
		t.Error("duplicate column accepted")
	}
}

func TestSchemaBadPrimaryKey(t *testing.T) {
	s := New()
	if _, err := s.AddTable("t", []Column{{"a", TInt}}, "missing"); err == nil {
		t.Error("bad primary key accepted")
	}
}

func TestSchemaBadForeignKeys(t *testing.T) {
	s := New()
	s.MustAddTable("parent", []Column{{"id", TInt}, {"x", TInt}}, "id")
	s.MustAddTable("child", []Column{{"pid", TInt}}, "pid")
	cases := []struct{ tab, col, rtab, rcol string }{
		{"nope", "pid", "parent", "id"},
		{"child", "nope", "parent", "id"},
		{"child", "pid", "nope", "id"},
		{"child", "pid", "parent", "x"}, // not the primary key
	}
	for _, c := range cases {
		if err := s.AddForeignKey(c.tab, c.col, c.rtab, c.rcol); err == nil {
			t.Errorf("AddForeignKey(%v) accepted", c)
		}
	}
}

func TestAttrSetOps(t *testing.T) {
	a := Attr{"toys", "qty"}
	b := Attr{"toys", "toy_id"}
	c := Attr{"customers", "cust_id"}
	s1 := NewAttrSet(a, b)
	s2 := NewAttrSet(b, c)
	if !s1.Intersects(s2) {
		t.Error("Intersects = false")
	}
	if s1.Intersects(NewAttrSet(c)) {
		t.Error("disjoint sets intersect")
	}
	u := s1.Union(s2)
	if len(u) != 3 {
		t.Errorf("union size %d", len(u))
	}
	if !u.Contains(a) || !u.Contains(c) {
		t.Error("union missing members")
	}
	if !s1.Equal(NewAttrSet(b, a)) {
		t.Error("Equal order-sensitive")
	}
	if s1.Equal(s2) {
		t.Error("different sets Equal")
	}
	if got := NewAttrSet(b, a).String(); got != "{toys.qty, toys.toy_id}" {
		t.Errorf("String() = %q", got)
	}
	if got := NewAttrSet().String(); got != "{}" {
		t.Errorf("empty String() = %q", got)
	}
}

func TestResolveQualifiedAndAliases(t *testing.T) {
	s := toystoreSchema(t)
	from := []sqlparse.TableRef{{Table: "toys", Alias: "t1"}, {Table: "toys", Alias: "t2"}}
	r, err := NewResolver(s, from)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := r.Resolve(sqlparse.ColumnRef{Table: "t2", Column: "qty"})
	if err != nil {
		t.Fatal(err)
	}
	if rc.FromIndex != 1 || rc.ColIndex != 2 {
		t.Errorf("resolved %+v", rc)
	}
	// Both aliases resolve to the same canonical attribute.
	rc1, _ := r.Resolve(sqlparse.ColumnRef{Table: "t1", Column: "qty"})
	if rc1.Attr != rc.Attr || rc.Attr != (Attr{"toys", "qty"}) {
		t.Errorf("attrs: %v vs %v", rc1.Attr, rc.Attr)
	}
	// Unqualified reference is ambiguous in a self-join.
	if _, err := r.Resolve(sqlparse.ColumnRef{Column: "qty"}); err == nil {
		t.Error("ambiguous column resolved")
	}
}

func TestResolveUnqualified(t *testing.T) {
	s := toystoreSchema(t)
	from := []sqlparse.TableRef{{Table: "customers"}, {Table: "credit_card"}}
	r, err := NewResolver(s, from)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := r.Resolve(sqlparse.ColumnRef{Column: "zip_code"})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Attr != (Attr{"credit_card", "zip_code"}) {
		t.Errorf("attr = %v", rc.Attr)
	}
	if _, err := r.Resolve(sqlparse.ColumnRef{Column: "missing"}); err == nil {
		t.Error("unknown column resolved")
	}
	if _, err := r.Resolve(sqlparse.ColumnRef{Table: "elsewhere", Column: "x"}); err == nil {
		t.Error("unknown table resolved")
	}
}

func TestResolverRejectsUnknownAndDuplicate(t *testing.T) {
	s := toystoreSchema(t)
	if _, err := NewResolver(s, []sqlparse.TableRef{{Table: "nope"}}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := NewResolver(s, []sqlparse.TableRef{{Table: "toys"}, {Table: "toys"}}); err == nil {
		t.Error("duplicate unaliased table accepted")
	}
}

func TestValidateAccepts(t *testing.T) {
	s := toystoreSchema(t)
	good := []string{
		"SELECT toy_id FROM toys WHERE toy_name=?",
		"SELECT qty FROM toys WHERE toy_id=?",
		"SELECT cust_name FROM customers, credit_card WHERE cust_id=cid AND zip_code=?",
		"SELECT MAX(qty) FROM toys",
		"SELECT toy_name, qty FROM toys ORDER BY qty DESC LIMIT 5",
		"DELETE FROM toys WHERE toy_id=?",
		"INSERT INTO credit_card (cid, number, zip_code) VALUES (?, ?, ?)",
		"INSERT INTO toys (toy_id, toy_name) VALUES (?, ?)", // partial: qty becomes NULL
		"UPDATE toys SET qty=? WHERE toy_id=?",
	}
	for _, src := range good {
		if err := Validate(s, sqlparse.MustParse(src)); err != nil {
			t.Errorf("Validate(%q) = %v", src, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	s := toystoreSchema(t)
	bad := []string{
		"SELECT missing FROM toys",
		"SELECT toy_id FROM nowhere",
		"SELECT toy_id FROM toys WHERE ? = ?",            // no column in predicate
		"INSERT INTO toys (toy_name, qty) VALUES (?, ?)", // does not bind the primary key
		"INSERT INTO toys (toy_id, missing) VALUES (?, ?)",
		"UPDATE toys SET toy_id=? WHERE toy_id=?", // modifies the key
		"UPDATE toys SET qty=? WHERE toy_name=?",  // not keyed on PK
		"UPDATE toys SET qty=? WHERE toy_id>?",    // non-equality key predicate
		"DELETE FROM toys WHERE missing=?",
	}
	for _, src := range bad {
		if err := Validate(s, sqlparse.MustParse(src)); err == nil {
			t.Errorf("Validate(%q) should fail", src)
		}
	}
}
