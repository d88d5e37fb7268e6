package template

import (
	"maps"
	"testing"

	"dssp/internal/schema"
)

func toySchema(t testing.TB) *schema.Schema {
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
	return s
}

func attrs(pairs ...string) schema.AttrSet {
	s := schema.NewAttrSet()
	for i := 0; i < len(pairs); i += 2 {
		s.Add(schema.Attr{Table: pairs[i], Column: pairs[i+1]})
	}
	return s
}

// has reports whether s holds a.
func has(s schema.AttrSet, a schema.Attr) bool {
	_, ok := s[a]
	return ok
}

// TestPaperSection41Sets checks the exact attribute sets the paper lists
// for the toystore application in §4.1.
func TestPaperSection41Sets(t *testing.T) {
	s := toySchema(t)
	q1 := MustNew("Q1", s, "SELECT toy_id FROM toys WHERE toy_name=?")
	if !maps.Equal(q1.Sel, attrs("toys", "toy_name")) {
		t.Errorf("S(Q1) = %v", q1.Sel)
	}
	if !maps.Equal(q1.Pres, attrs("toys", "toy_id")) {
		t.Errorf("P(Q1) = %v", q1.Pres)
	}
	u1 := MustNew("U1", s, "DELETE FROM toys WHERE toy_id=?")
	if !maps.Equal(u1.Sel, attrs("toys", "toy_id")) {
		t.Errorf("S(U1) = %v", u1.Sel)
	}
	if !maps.Equal(u1.Mod, attrs("toys", "toy_id", "toys", "toy_name", "toys", "qty")) {
		t.Errorf("M(U1) = %v", u1.Mod)
	}
}

func TestKinds(t *testing.T) {
	s := toySchema(t)
	cases := []struct {
		sql  string
		kind Kind
	}{
		{"SELECT qty FROM toys WHERE toy_id=?", KQuery},
		{"INSERT INTO customers (cust_id, cust_name) VALUES (?, ?)", KInsert},
		{"DELETE FROM toys WHERE toy_id=?", KDelete},
		{"UPDATE toys SET qty=? WHERE toy_id=?", KModify},
	}
	for _, c := range cases {
		tm := MustNew("T", s, c.sql)
		if tm.Kind != c.kind {
			t.Errorf("%q kind = %v, want %v", c.sql, tm.Kind, c.kind)
		}
		if tm.Kind.IsUpdate() != (c.kind != KQuery) {
			t.Errorf("%q IsUpdate wrong", c.sql)
		}
	}
}

func TestInsertionSets(t *testing.T) {
	s := toySchema(t)
	u := MustNew("U", s, "INSERT INTO credit_card (cid, number, zip_code) VALUES (?, ?, ?)")
	if len(u.Sel) != 0 {
		t.Errorf("S of insertion = %v, want empty", u.Sel)
	}
	if !maps.Equal(u.Mod, attrs("credit_card", "cid", "credit_card", "number", "credit_card", "zip_code")) {
		t.Errorf("M = %v", u.Mod)
	}
}

func TestModificationSets(t *testing.T) {
	s := toySchema(t)
	u := MustNew("U", s, "UPDATE toys SET qty=? WHERE toy_id=?")
	if !maps.Equal(u.Sel, attrs("toys", "toy_id")) {
		t.Errorf("S = %v", u.Sel)
	}
	if !maps.Equal(u.Mod, attrs("toys", "qty")) {
		t.Errorf("M = %v", u.Mod)
	}
}

func TestQueryJoinSets(t *testing.T) {
	s := toySchema(t)
	q := MustNew("Q3", s, "SELECT cust_name FROM customers, credit_card WHERE cust_id=cid AND zip_code=?")
	wantSel := attrs("customers", "cust_id", "credit_card", "cid", "credit_card", "zip_code")
	if !maps.Equal(q.Sel, wantSel) {
		t.Errorf("S(Q3) = %v, want %v", q.Sel, wantSel)
	}
	if !maps.Equal(q.Pres, attrs("customers", "cust_name")) {
		t.Errorf("P(Q3) = %v", q.Pres)
	}
	if !maps.Equal(q.ParamSel, attrs("credit_card", "zip_code")) {
		t.Errorf("ParamSel(Q3) = %v", q.ParamSel)
	}
	if !q.EqJoinsOnly || !q.NoTopK {
		t.Errorf("classes: E=%v N=%v", q.EqJoinsOnly, q.NoTopK)
	}
	if q.ViolatesAssumptions {
		t.Error("Q3 should satisfy the assumptions")
	}
}

func TestOrderByCountsAsSelection(t *testing.T) {
	s := toySchema(t)
	q := MustNew("Q", s, "SELECT toy_name FROM toys ORDER BY qty DESC LIMIT 5")
	if !has(q.Sel, schema.Attr{Table: "toys", Column: "qty"}) {
		t.Errorf("ORDER BY attr missing from S: %v", q.Sel)
	}
	if q.NoTopK {
		t.Error("LIMIT query classified as no-top-k")
	}
}

func TestStarPreservesAll(t *testing.T) {
	s := toySchema(t)
	q := MustNew("Q", s, "SELECT * FROM toys WHERE toy_id=?")
	if len(q.Pres) != 3 {
		t.Errorf("P = %v", q.Pres)
	}
}

func TestSelfJoinViolatesAssumptions(t *testing.T) {
	s := toySchema(t)
	q := MustNew("Q", s, "SELECT t1.toy_id FROM toys AS t1, toys AS t2 WHERE t1.qty>t2.qty AND t1.toy_name=?")
	if !q.ViolatesAssumptions {
		t.Error("same-relation comparison not flagged")
	}
	if q.EqJoinsOnly {
		t.Error("inequality join classified as E")
	}
}

func TestEmbeddedConstantViolatesAssumptions(t *testing.T) {
	s := toySchema(t)
	if !MustNew("Q", s, "SELECT toy_id FROM toys WHERE qty>100").ViolatesAssumptions {
		t.Error("embedded constant not flagged (query)")
	}
	if !MustNew("U", s, "UPDATE toys SET qty=10 WHERE toy_id=?").ViolatesAssumptions {
		t.Error("embedded constant not flagged (modification SET)")
	}
	if !MustNew("U", s, "INSERT INTO customers (cust_id, cust_name) VALUES (?, 'anon')").ViolatesAssumptions {
		t.Error("embedded constant not flagged (insertion value)")
	}
	if MustNew("Q", s, "SELECT toy_id FROM toys WHERE toy_name=?").ViolatesAssumptions {
		t.Error("clean template flagged")
	}
}

func TestCartesianProductViolatesAssumptions(t *testing.T) {
	s := toySchema(t)
	q := MustNew("Q", s, "SELECT cust_name, toy_name FROM customers, toys")
	if !q.ViolatesAssumptions {
		t.Error("cartesian product not flagged")
	}
}

func TestAggregateClassification(t *testing.T) {
	s := toySchema(t)
	q := MustNew("Q", s, "SELECT MAX(qty) FROM toys")
	if !q.HasAggregate {
		t.Error("HasAggregate = false")
	}
	if q.NoTopK {
		t.Error("aggregate classified as no-top-k (MAX behaves like top-1)")
	}
	if !maps.Equal(q.AggAttrs, attrs("toys", "qty")) {
		t.Errorf("AggAttrs = %v", q.AggAttrs)
	}
	if len(q.Pres) != 0 {
		t.Errorf("P = %v, want empty", q.Pres)
	}
}

func TestGroupByClassification(t *testing.T) {
	s := toySchema(t)
	q := MustNew("Q", s, "SELECT toy_name, SUM(qty) AS total FROM toys GROUP BY toy_name ORDER BY total DESC LIMIT 2")
	if !q.HasGroupBy || !q.HasAggregate {
		t.Error("group-by flags wrong")
	}
	if !has(q.Sel, schema.Attr{Table: "toys", Column: "toy_name"}) {
		t.Errorf("GROUP BY attr missing from S: %v", q.Sel)
	}
	if !has(q.Pres, schema.Attr{Table: "toys", Column: "toy_name"}) {
		t.Errorf("group key should be preserved: %v", q.Pres)
	}
}

func TestIgnorable(t *testing.T) {
	s := toySchema(t)
	u1 := MustNew("U1", s, "DELETE FROM toys WHERE toy_id=?")
	u2 := MustNew("U2", s, "INSERT INTO credit_card (cid, number, zip_code) VALUES (?, ?, ?)")
	q1 := MustNew("Q1", s, "SELECT toy_id FROM toys WHERE toy_name=?")
	q3 := MustNew("Q3", s, "SELECT cust_name FROM customers, credit_card WHERE cust_id=cid AND zip_code=?")
	// The paper: U1 is ignorable w.r.t. Q3 but not Q1; U2 is not ignorable
	// w.r.t. Q3.
	if !IgnorableFor(u1, q3) {
		t.Error("U1 should be ignorable for Q3")
	}
	if IgnorableFor(u1, q1) {
		t.Error("U1 should not be ignorable for Q1")
	}
	if IgnorableFor(u2, q3) {
		t.Error("U2 should not be ignorable for Q3")
	}
}

func TestResultUnhelpful(t *testing.T) {
	s := toySchema(t)
	u1 := MustNew("U1", s, "DELETE FROM toys WHERE toy_id=?")
	u2 := MustNew("U2", s, "INSERT INTO credit_card (cid, number, zip_code) VALUES (?, ?, ?)")
	q1 := MustNew("Q1", s, "SELECT toy_id FROM toys WHERE toy_name=?")
	q2 := MustNew("Q2", s, "SELECT qty FROM toys WHERE toy_id=?")
	q3 := MustNew("Q3", s, "SELECT cust_name FROM customers, credit_card WHERE cust_id=cid AND zip_code=?")
	// The paper: Q3 is result-unhelpful for U2; Q2 is result-unhelpful for
	// U1 (S(U1) = {toy_id} is not preserved by Q2); Q1 is not (it preserves
	// toy_id).
	if !ResultUnhelpfulFor(u2, q3) {
		t.Error("Q3 should be result-unhelpful for U2")
	}
	if !ResultUnhelpfulFor(u1, q2) {
		t.Error("Q2 should be result-unhelpful for U1")
	}
	if ResultUnhelpfulFor(u1, q1) {
		t.Error("Q1 should not be result-unhelpful for U1")
	}
}

func TestAggregateNeverResultUnhelpful(t *testing.T) {
	s := toySchema(t)
	u := MustNew("U", s, "DELETE FROM toys WHERE toy_id=?")
	q := MustNew("Q", s, "SELECT MAX(qty) FROM toys")
	if ResultUnhelpfulFor(u, q) {
		t.Error("aggregate query claimed result-unhelpful")
	}
}

func TestCountStar(t *testing.T) {
	s := toySchema(t)
	q := MustNew("Q", s, "SELECT COUNT(*) FROM toys")
	if !q.CountStar {
		t.Error("CountStar = false")
	}
	ins := MustNew("U", s, "INSERT INTO toys (toy_id, toy_name, qty) VALUES (?, ?, ?)")
	del := MustNew("U", s, "DELETE FROM toys WHERE toy_id=?")
	mod := MustNew("U", s, "UPDATE toys SET qty=? WHERE toy_id=?")
	insOther := MustNew("U", s, "INSERT INTO customers (cust_id, cust_name) VALUES (?, ?)")
	if IgnorableFor(ins, q) {
		t.Error("insertion must affect COUNT(*)")
	}
	if IgnorableFor(del, q) {
		t.Error("deletion must affect COUNT(*)")
	}
	if !IgnorableFor(mod, q) {
		t.Error("modification cannot affect unpredicated COUNT(*)")
	}
	if !IgnorableFor(insOther, q) {
		t.Error("insertion into an unrelated relation flagged")
	}
}

func TestExposureOrderingAndMax(t *testing.T) {
	if !(ExpBlind < ExpTemplate && ExpTemplate < ExpStmt && ExpStmt < ExpView) {
		t.Error("exposure order broken")
	}
	if MaxExposure(KQuery) != ExpView {
		t.Error("query max exposure")
	}
	for _, k := range []Kind{KInsert, KDelete, KModify} {
		if MaxExposure(k) != ExpStmt {
			t.Errorf("%v max exposure", k)
		}
	}
	names := map[Exposure]string{ExpBlind: "blind", ExpTemplate: "template", ExpStmt: "stmt", ExpView: "view"}
	for e, n := range names {
		if e.String() != n {
			t.Errorf("String(%d) = %q", e, e.String())
		}
	}
}

func TestAppLookups(t *testing.T) {
	s := toySchema(t)
	app := &App{
		Name:   "t",
		Schema: s,
		Queries: []*Template{
			MustNew("Q1", s, "SELECT toy_id FROM toys WHERE toy_name=?"),
		},
		Updates: []*Template{
			MustNew("U1", s, "DELETE FROM toys WHERE toy_id=?"),
		},
	}
	if app.Query("Q1") == nil || app.Query("Q9") != nil {
		t.Error("Query lookup wrong")
	}
	if app.Update("U1") == nil || app.Update("U9") != nil {
		t.Error("Update lookup wrong")
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	s := toySchema(t)
	if _, err := New("B1", s, "SELECT nothing FROM nowhere"); err == nil {
		t.Error("invalid template accepted")
	}
	if _, err := New("B2", s, "not sql"); err == nil {
		t.Error("unparseable template accepted")
	}
}
