package invalidate

import (
	"testing"

	"dssp/internal/core"
	"dssp/internal/schema"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

// TestRouterIndex proves the routing index is exactly the A = 0 structure
// of the static analysis: for every update template, Affected lists the
// A > 0 query templates in application order and AZero/Skipped cover the
// complement — so a cache that visits only Affected buckets provably skips
// every A = 0 bucket and nothing else.
func TestRouterIndex(t *testing.T) {
	app := richToystore()
	a := core.Analyze(app, core.DefaultOptions())
	r := NewRouter(a)

	sawAZero := false
	for i, u := range app.Updates {
		ids, ok := r.Affected(u.ID)
		if !ok {
			t.Fatalf("Affected(%s) unknown", u.ID)
		}
		skipped, ok := r.Skipped(u.ID)
		if !ok {
			t.Fatalf("Skipped(%s) unknown", u.ID)
		}
		if len(ids)+skipped != len(app.Queries) {
			t.Errorf("%s: affected %d + skipped %d != %d queries", u.ID, len(ids), skipped, len(app.Queries))
		}
		// Affected must be exactly the A > 0 pairs, in app order.
		var want []string
		for j, q := range app.Queries {
			if a.Pairs[i][j].AZero {
				sawAZero = true
				if !r.AZero(u.ID, q.ID) {
					t.Errorf("AZero(%s, %s) = false, analysis says A = 0", u.ID, q.ID)
				}
			} else {
				want = append(want, q.ID)
				if r.AZero(u.ID, q.ID) {
					t.Errorf("AZero(%s, %s) = true, analysis says A > 0", u.ID, q.ID)
				}
			}
		}
		if len(ids) != len(want) {
			t.Fatalf("%s: Affected = %v, want %v", u.ID, ids, want)
		}
		for k := range want {
			if ids[k] != want[k] {
				t.Errorf("%s: Affected[%d] = %s, want %s (app order)", u.ID, k, ids[k], want[k])
			}
		}
	}
	if !sawAZero {
		t.Error("toystore analysis proved no A = 0 pair; the routing test is vacuous")
	}

	// Unknown update templates are not routable: callers must fall back.
	if _, ok := r.Affected("U99"); ok {
		t.Error("Affected(U99) = ok for an unknown template")
	}
	if r.AZero("U99", "Q1") {
		t.Error("AZero must be conservative (false) for unknown pairs")
	}

	// The class table is the Figure 6 mapping, and out-of-range exposures
	// (corrupt messages) degrade to the always-correct blind class.
	for eu := template.ExpBlind; eu <= template.ExpView; eu++ {
		for eq := template.ExpBlind; eq <= template.ExpView; eq++ {
			if r.Class(eu, eq) != ClassFor(eu, eq) {
				t.Errorf("Class(%v, %v) = %v, want %v", eu, eq, r.Class(eu, eq), ClassFor(eu, eq))
			}
		}
	}
	if r.Class(template.Exposure(200), template.ExpView) != Blind {
		t.Error("corrupt exposure must map to the blind class")
	}
}

// TestQueryInfoNoCrossContamination (the instance-scoped pair plans): two
// applications with identically named templates over different schemas
// must each reason with their own statement structure. An old
// package-global memo additionally leaked one entry per template for the
// process lifetime; an invalidator's plans die with it.
func TestQueryInfoNoCrossContamination(t *testing.T) {
	mkApp := func(name, querySQL string) *template.App {
		s := schema.New()
		s.MustAddTable("toys", []schema.Column{
			{Name: "toy_id", Type: schema.TInt},
			{Name: "toy_name", Type: schema.TString},
			{Name: "qty", Type: schema.TInt},
		}, "toy_id")
		return &template.App{
			Name:   name,
			Schema: s,
			Queries: []*template.Template{
				template.MustNew("Q1", s, querySQL),
			},
			Updates: []*template.Template{
				template.MustNew("U1", s, "UPDATE toys SET qty=? WHERE toy_id=?"),
			},
		}
	}
	// Same template ID "Q1", different selection column: app A's Q1 keys on
	// toy_id (the modified row's key), app B's on qty.
	appA := mkApp("appA", "SELECT toy_name FROM toys WHERE toy_id=?")
	appB := mkApp("appB", "SELECT toy_name FROM toys WHERE qty>?")
	ivA, ivB := newInvalidator(appA), newInvalidator(appB)

	// U1 sets qty=5 on toy_id=1. For app A (keyed toy_id=2) the statement
	// level proves disjointness; for app B (qty>3) the post-image qty=5
	// satisfies the predicate, so it must invalidate. If either invalidator
	// consulted the other's Q1 structure, one of the two answers flips.
	u := UpdateInstance{Template: appA.Updates[0], Params: []sqlparse.Value{sqlparse.IntVal(5), sqlparse.IntVal(1)}}
	qA := CachedView{Template: appA.Queries[0], Params: []sqlparse.Value{sqlparse.IntVal(2)}}
	uB := UpdateInstance{Template: appB.Updates[0], Params: u.Params}
	qB := CachedView{Template: appB.Queries[0], Params: []sqlparse.Value{sqlparse.IntVal(3)}}

	for i := 0; i < 3; i++ { // repeat: no decision may depend on an earlier one
		if d := decide(ivA, StatementInspection, u, qA); d != DNI {
			t.Fatalf("round %d: appA decision = %v, want DNI", i, d)
		}
		if d := decide(ivB, StatementInspection, uB, qB); d != Invalidate {
			t.Fatalf("round %d: appB decision = %v, want Invalidate", i, d)
		}
	}
}

// TestMalformedInsertNoPanic (the insertedRow guard): statement inspection
// over a hand-assembled insert AST with mismatched column/value lists must
// conservatively invalidate, not index out of range inside the cache's
// invalidation pass. The parser rejects such statements, but templates can
// be constructed from raw ASTs.
func TestMalformedInsertNoPanic(t *testing.T) {
	app := richToystore()
	iv := newInvalidator(app)
	good := app.Update("U3") // INSERT INTO toys (toy_id, toy_name, qty) VALUES (?, ?, ?)
	bad := &template.Template{
		ID:   "U3",
		Kind: template.KInsert,
		Stmt: &sqlparse.InsertStmt{
			Table:   "toys",
			Columns: []string{"toy_id", "toy_name", "qty"},
			Values: []sqlparse.Operand{ // one operand short
				{Kind: sqlparse.OpParam, Param: 0},
				{Kind: sqlparse.OpParam, Param: 1},
			},
		},
	}
	// Q1 keys on toy_name, so the U3/Q1 pair has A > 0 (template inspection
	// does not short-circuit) and the decision reaches the statement level.
	view := CachedView{Template: app.Query("Q1"), Params: []sqlparse.Value{sqlparse.StringVal("bear")}}
	params := []sqlparse.Value{sqlparse.IntVal(99), sqlparse.StringVal("x")}
	for _, class := range []Class{StatementInspection, ViewInspection} {
		if d := decide(iv, class, UpdateInstance{Template: bad, Params: params}, view); d != Invalidate {
			t.Errorf("%v over malformed insert = %v, want conservative Invalidate", class, d)
		}
	}
	// Unknown tables and unresolvable columns take the same guard path.
	for _, stmt := range []*sqlparse.InsertStmt{
		{Table: "nowhere", Columns: []string{"a"}, Values: []sqlparse.Operand{{Kind: sqlparse.OpParam}}},
		{Table: "toys", Columns: []string{"ghost"}, Values: []sqlparse.Operand{{Kind: sqlparse.OpParam}}},
	} {
		bad := &template.Template{ID: "U3", Kind: template.KInsert, Stmt: stmt}
		if d := decide(iv, StatementInspection, UpdateInstance{Template: bad, Params: params}, view); d != Invalidate {
			t.Errorf("insert into %s: decision = %v, want Invalidate", stmt.Table, d)
		}
	}
	_ = good
}
