package invalidate

import (
	"fmt"
	"testing"

	"dssp/internal/engine"
	"dssp/internal/schema"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
)

// TestViewModifyExhaustive checks view inspection of modifications over a
// domain small enough to enumerate: one table t(k, p, v) — key, predicate
// column, payload — with values in {0,1,2}, every database of at most
// three rows (1000 of them), every instance of the frame query and the
// top-2 query, and every instance of an update to the payload and to the
// predicate column.
//
// (a) Soundness: DNI implies re-execution returns the identical result.
//
// (b) Minimality, for the query without LIMIT: Invalidate implies that some
// database producing the same cached result changes under the update. A
// strategy sees only (update, query, result), so the databases that agree
// on those three are indistinguishable to it, and a minimal strategy may
// invalidate only when one of them needs it. As everywhere (§2.1), updates
// that leave the database as it was are outside the model: a database the
// update has no effect on is no witness, and no demand either.
func TestViewModifyExhaustive(t *testing.T) {
	s := schema.New()
	s.MustAddTable("t", []schema.Column{
		{Name: "k", Type: schema.TInt},
		{Name: "p", Type: schema.TInt},
		{Name: "v", Type: schema.TInt},
	}, "k")
	frame := template.MustNew("QF", s, "SELECT k, v FROM t WHERE p=?")
	topk := template.MustNew("QT", s, "SELECT k, v FROM t WHERE p=? ORDER BY v LIMIT 2")
	app := &template.App{
		Name:    "small",
		Schema:  s,
		Queries: []*template.Template{frame, topk},
		Updates: []*template.Template{
			template.MustNew("UV", s, "UPDATE t SET v=? WHERE k=?"),
			template.MustNew("UP", s, "UPDATE t SET p=? WHERE k=?"),
		},
	}
	iv := newInvalidator(app)
	plans := make(map[*template.Template]*engine.Plan)
	for _, q := range app.Queries {
		p, err := engine.Compile(s, q.Stmt.(*sqlparse.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		plans[q] = p
	}
	run := func(db *storage.Database, q *template.Template, params []sqlparse.Value) *engine.Result {
		res, err := plans[q].Run(db, params)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Every database: each key is absent or carries one of the nine (p, v).
	var dbs []*storage.Database
	for code := 0; code < 1000; code++ {
		db := storage.NewDatabase(s)
		for k, c := int64(0), code; k < 3; k, c = k+1, c/10 {
			if pv := c % 10; pv > 0 {
				row := storage.Row{sqlparse.IntVal(k), sqlparse.IntVal(int64((pv - 1) / 3)), sqlparse.IntVal(int64((pv - 1) % 3))}
				if err := db.Insert("t", row); err != nil {
					t.Fatal(err)
				}
			}
		}
		dbs = append(dbs, db)
	}
	var updates []UpdateInstance
	for _, u := range app.Updates {
		for val := int64(0); val < 3; val++ {
			for key := int64(0); key < 3; key++ {
				updates = append(updates, UpdateInstance{u, []sqlparse.Value{sqlparse.IntVal(val), sqlparse.IntVal(key)}})
			}
		}
	}

	// What the strategy can tell apart, and what happened behind it.
	type seen struct {
		q      *template.Template
		param  int64
		result string
		update int
	}
	needed := make(map[seen]bool) // an invalidated case → some database behind it changed
	dni, inv := 0, 0

	for _, db := range dbs {
		for ui, u := range updates {
			db2 := db.Clone()
			if _, err := engine.ExecUpdate(db2, u.Template.Stmt, u.Params); err != nil {
				t.Fatal(err)
			}
			if dump(db) == dump(db2) {
				continue // no effect: outside the model
			}
			pu := iv.Prepare(u)
			for _, q := range app.Queries {
				for param := int64(0); param < 3; param++ {
					params := []sqlparse.Value{sqlparse.IntVal(param)}
					cached := run(db, q, params)
					if cached.Len() == 0 {
						continue // never cached
					}
					// Row order counts for both queries: without an index a scan
					// is in key order, before and after.
					before, after := cached.Fingerprint(true), run(db2, q, params).Fingerprint(true)
					d := iv.DecidePrepared(ViewInspection, pu, CachedView{Template: q, Params: params, Result: cached})
					if d == DNI {
						dni++
						if before != after {
							t.Fatalf("unsound: %s%v on %s(%d) over\n%s\ndecided DNI, result went from\n%s\nto\n%s",
								u.Template.ID, u.Params, q.ID, param, dump(db), before, after)
						}
						continue
					}
					inv++
					if q == frame {
						k := seen{q, param, before, ui}
						needed[k] = needed[k] || before != after
					}
				}
			}
		}
	}
	for k, ok := range needed {
		if !ok {
			u := updates[k.update]
			t.Errorf("not minimal: %s%v invalidates %s(%d) = {%s}, but no database with that result changes",
				u.Template.ID, u.Params, k.q.ID, k.param, k.result)
		}
	}
	if dni == 0 || inv == 0 || len(needed) == 0 {
		t.Fatalf("enumeration too weak: %d DNI, %d Invalidate, %d groups", dni, inv, len(needed))
	}
	t.Logf("%d databases × %d updates: %d DNI (all sound), %d Invalidate, %d distinguishable frame-query cases (all needed)",
		len(dbs), len(updates), dni, inv, len(needed))
}

// dump renders table t in key order.
func dump(db *storage.Database) string {
	var out string
	db.Table("t").Scan(func(r storage.Row) bool {
		out += fmt.Sprint(r[0].Int, r[1].Int, r[2].Int, ";")
		return true
	})
	return out
}
