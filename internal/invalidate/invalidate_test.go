package invalidate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/engine"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
)

// richToystore extends the paper's toystore with enough templates to
// exercise every strategy code path: insertions, deletions, modifications
// against plain SPJ, join, top-k, MIN/MAX, and COUNT(*) queries.
func richToystore() *template.App {
	app := apps.Toystore()
	s := app.Schema
	app.Queries = append(app.Queries,
		template.MustNew("Q4", s, "SELECT toy_id, qty FROM toys WHERE toy_name=?"),
		template.MustNew("Q5", s, "SELECT toy_id, qty FROM toys ORDER BY qty DESC LIMIT 3"),
		template.MustNew("Q6", s, "SELECT MAX(qty) FROM toys"),
		template.MustNew("Q7", s, "SELECT toy_name FROM toys WHERE qty>?"),
		template.MustNew("Q8", s, "SELECT COUNT(*) FROM toys"),
		template.MustNew("Q9", s, "SELECT cust_name, number FROM customers, credit_card WHERE cust_id=cid AND zip_code=?"),
		template.MustNew("Q10", s, "SELECT MIN(qty) FROM toys"),
		template.MustNew("Q11", s, "SELECT toy_name FROM toys WHERE qty>=? AND qty<=?"),
	)
	app.Updates = append(app.Updates,
		template.MustNew("U3", s, "INSERT INTO toys (toy_id, toy_name, qty) VALUES (?, ?, ?)"),
		template.MustNew("U4", s, "UPDATE toys SET qty=? WHERE toy_id=?"),
		template.MustNew("U5", s, "DELETE FROM toys WHERE qty<?"),
		template.MustNew("U6", s, "INSERT INTO customers (cust_id, cust_name) VALUES (?, ?)"),
		template.MustNew("U7", s, "UPDATE credit_card SET zip_code=? WHERE cid=?"),
	)
	return app
}

func newInvalidator(app *template.App) *Invalidator {
	return New(app, core.Analyze(app, core.DefaultOptions()))
}

// decide prepares the update and asks for one decision: the two-step
// entry as a test reads best, one update against one view.
func decide(iv *Invalidator, class Class, u UpdateInstance, q CachedView) Decision {
	return iv.DecidePrepared(class, iv.Prepare(u), q)
}

var toyNames = []string{"bear", "truck", "doll", "kite", "ball"}

// randomToystoreDB populates a database with random but constraint-
// respecting contents.
func randomToystoreDB(t testing.TB, rng *rand.Rand, app *template.App) *storage.Database {
	t.Helper()
	db := storage.NewDatabase(app.Schema)
	nToys := 3 + rng.Intn(8)
	for i := 0; i < nToys; i++ {
		err := db.Insert("toys", storage.Row{
			sqlparse.IntVal(int64(i + 1)),
			sqlparse.StringVal(toyNames[rng.Intn(len(toyNames))]),
			sqlparse.IntVal(int64(rng.Intn(20))),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	nCust := 2 + rng.Intn(4)
	for i := 0; i < nCust; i++ {
		if err := db.Insert("customers", storage.Row{
			sqlparse.IntVal(int64(i + 1)), sqlparse.StringVal(fmt.Sprintf("cust%d", i+1)),
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("credit_card", storage.Row{
			sqlparse.IntVal(int64(i + 1)),
			sqlparse.StringVal(fmt.Sprintf("4111-%04d", rng.Intn(10000))),
			sqlparse.StringVal(fmt.Sprintf("152%02d", rng.Intn(4))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// randomParams draws parameter values for a template, biased toward values
// present in the database so predicates actually select rows.
func randomParams(rng *rand.Rand, db *storage.Database, tm *template.Template) []sqlparse.Value {
	nextID := func(table string) int64 {
		max := int64(0)
		db.Table(table).Scan(func(r storage.Row) bool {
			if r[0].Int() > max {
				max = r[0].Int()
			}
			return true
		})
		return max + 1 + int64(rng.Intn(3))
	}
	switch tm.ID {
	case "Q1", "Q4":
		return []sqlparse.Value{sqlparse.StringVal(toyNames[rng.Intn(len(toyNames))])}
	case "Q2":
		return []sqlparse.Value{sqlparse.IntVal(int64(1 + rng.Intn(10)))}
	case "Q3", "Q9":
		return []sqlparse.Value{sqlparse.StringVal(fmt.Sprintf("152%02d", rng.Intn(4)))}
	case "Q7":
		return []sqlparse.Value{sqlparse.IntVal(int64(rng.Intn(20)))}
	case "Q11":
		lo := rng.Intn(15)
		return []sqlparse.Value{sqlparse.IntVal(int64(lo)), sqlparse.IntVal(int64(lo + rng.Intn(8)))}
	case "U1":
		return []sqlparse.Value{sqlparse.IntVal(int64(1 + rng.Intn(12)))}
	case "U2":
		// Valid foreign key required.
		return []sqlparse.Value{
			sqlparse.IntVal(int64(1 + rng.Intn(db.Table("customers").Len()))),
			sqlparse.StringVal(fmt.Sprintf("4111-%04d", rng.Intn(10000))),
			sqlparse.StringVal(fmt.Sprintf("152%02d", rng.Intn(4))),
		}
	case "U3":
		return []sqlparse.Value{
			sqlparse.IntVal(nextID("toys")),
			sqlparse.StringVal(toyNames[rng.Intn(len(toyNames))]),
			sqlparse.IntVal(int64(rng.Intn(25))),
		}
	case "U4":
		return []sqlparse.Value{sqlparse.IntVal(int64(rng.Intn(25))), sqlparse.IntVal(int64(1 + rng.Intn(12)))}
	case "U5":
		return []sqlparse.Value{sqlparse.IntVal(int64(rng.Intn(10)))}
	case "U6":
		return []sqlparse.Value{sqlparse.IntVal(nextID("customers")), sqlparse.StringVal("newbie")}
	case "U7":
		return []sqlparse.Value{
			sqlparse.StringVal(fmt.Sprintf("152%02d", rng.Intn(4))),
			sqlparse.IntVal(int64(1 + rng.Intn(6))),
		}
	default:
		return nil
	}
}

// TestStrategyCorrectness is the central soundness property: for every
// strategy class, whenever an update actually changes a cached query's
// result, the strategy must decide to invalidate (definition of
// correctness, §2.2). Ground truth is re-execution on a cloned database.
// Cached results are restricted to non-empty ones, matching the §2.1
// assumption the analysis relies on (the DSSP enforces the same policy by
// never caching empty results).
func TestStrategyCorrectness(t *testing.T) {
	for _, seed := range propertySeeds(t, 42) {
		strategyCorrectness(t, seed)
	}
}

// propertySeeds is a property test's draws: the fixed seed it has always
// run, then one from the clock, so that repeated runs (CI's -count=5) see
// fresh databases. Each is logged, and every failure message quotes its
// seed, so a failing draw can be replayed.
func propertySeeds(t *testing.T, fixed int64) []int64 {
	t.Helper()
	seeds := []int64{fixed, time.Now().UnixNano()}
	t.Logf("seeds %v", seeds)
	return seeds
}

func strategyCorrectness(t *testing.T, seed int64) {
	app := richToystore()
	iv := newInvalidator(app)
	rng := rand.New(rand.NewSource(seed))
	classes := []Class{Blind, TemplateInspection, StatementInspection, ViewInspection}
	invalidations := make(map[Class]int)
	checked := 0

	for trial := 0; trial < 400; trial++ {
		db := randomToystoreDB(t, rng, app)

		// Build the cache: every query template with random params.
		type entry struct {
			view    CachedView
			ordered bool
		}
		var cache []entry
		for _, q := range app.Queries {
			params := randomParams(rng, db, q)
			res, err := engine.ExecQuery(db, q.Stmt.(*sqlparse.SelectStmt), params)
			if err != nil {
				t.Fatalf("seed %d: exec %s: %v", seed, q.ID, err)
			}
			if res.Len() == 0 {
				continue // §2.1 assumption: cached results are non-empty
			}
			sel := q.Stmt.(*sqlparse.SelectStmt)
			cache = append(cache, entry{
				view:    CachedView{Template: q, Params: params, Result: res},
				ordered: len(sel.OrderBy) > 0,
			})
		}

		// One random update.
		u := app.Updates[rng.Intn(len(app.Updates))]
		uParams := randomParams(rng, db, u)
		db2 := db.Clone()
		n, err := engine.ExecUpdate(db2, u.Stmt, uParams)
		if err != nil || n == 0 {
			continue // no-effect updates are outside the §2.1 model
		}
		ui := UpdateInstance{Template: u, Params: uParams}

		for _, e := range cache {
			after, err := engine.ExecQuery(db2, e.view.Template.Stmt.(*sqlparse.SelectStmt), e.view.Params)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			changed := e.view.Result.Fingerprint(e.ordered) != after.Fingerprint(e.ordered)
			for _, class := range classes {
				d := decide(iv, class, ui, e.view)
				if d == Invalidate {
					invalidations[class]++
				}
				if changed && d == DNI {
					t.Fatalf("seed %d trial %d: %v missed invalidation: update %s%v changed %s%v",
						seed, trial, class, u.ID, uParams, e.view.Template.ID, e.view.Params)
				}
			}
			checked++
		}
	}
	if checked < 1000 {
		t.Fatalf("seed %d: only %d pair checks ran; generator too weak", seed, checked)
	}
	// Gradient (Property 3 at runtime): more information, fewer
	// invalidations.
	if !(invalidations[Blind] >= invalidations[TemplateInspection] &&
		invalidations[TemplateInspection] >= invalidations[StatementInspection] &&
		invalidations[StatementInspection] >= invalidations[ViewInspection]) {
		t.Errorf("seed %d: invalidation gradient violated: %v", seed, invalidations)
	}
	// Each refinement must actually help on this workload.
	if invalidations[TemplateInspection] == invalidations[Blind] {
		t.Errorf("seed %d: template inspection never helped", seed)
	}
	if invalidations[StatementInspection] == invalidations[TemplateInspection] {
		t.Errorf("seed %d: statement inspection never helped", seed)
	}
	if invalidations[ViewInspection] == invalidations[StatementInspection] {
		t.Errorf("seed %d: view inspection never helped", seed)
	}
}

func mustExec(t *testing.T, db *storage.Database, q *template.Template, params ...sqlparse.Value) *engine.Result {
	t.Helper()
	res, err := engine.ExecQuery(db, q.Stmt.(*sqlparse.SelectStmt), params)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// paperDB builds the fixed database used by the worked examples.
func paperDB(t *testing.T, app *template.App) *storage.Database {
	t.Helper()
	db := storage.NewDatabase(app.Schema)
	rows := []struct {
		id   int64
		name string
		qty  int64
	}{{1, "bear", 10}, {2, "truck", 3}, {3, "bear", 7}, {5, "kite", 25}}
	for _, r := range rows {
		if err := db.Insert("toys", storage.Row{sqlparse.IntVal(r.id), sqlparse.StringVal(r.name), sqlparse.IntVal(r.qty)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 2; i++ {
		if err := db.Insert("customers", storage.Row{sqlparse.IntVal(i), sqlparse.StringVal(fmt.Sprintf("cust%d", i))}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("credit_card", storage.Row{sqlparse.IntVal(i), sqlparse.StringVal("4111"), sqlparse.StringVal("15213")}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestHomeAnswersByValue pins one equality at the home database: a
// parameter bound as a float finds the row its int finds, by primary key
// as by scan. Statement inspection has always called the two one value
// (TestStatementInspectionNumericKinds); the engine's probes agree.
func TestHomeAnswersByValue(t *testing.T) {
	app := richToystore()
	db := paperDB(t, app)
	q2 := app.Query("Q2")
	for _, id := range []sqlparse.Value{sqlparse.IntVal(3), sqlparse.FloatVal(3)} {
		if res := mustExec(t, db, q2, id); res.Len() != 1 || res.Row(0)[0].Int() != 7 {
			t.Errorf("Q2(%v %v) = %v, want toy 3's qty 7", id.Kind, id, res.Vals)
		}
	}
	n, err := engine.ExecUpdate(db, app.Update("U4").Stmt, []sqlparse.Value{sqlparse.IntVal(99), sqlparse.FloatVal(3)})
	if err != nil || n != 1 {
		t.Fatalf("U4(99, 3.0) affected %d rows (%v), want 1", n, err)
	}
	if res := mustExec(t, db, q2, sqlparse.IntVal(3)); res.Len() != 1 || res.Row(0)[0].Int() != 99 {
		t.Errorf("after U4(99, 3.0), Q2(3) = %v, want 99", res.Vals)
	}
}

// TestTable2Scenarios reproduces Table 2: the invalidations triggered by
// U1 with parameter 5 on the simple-toystore templates under the four
// information-exposure scenarios.
func TestTable2Scenarios(t *testing.T) {
	app := richToystore()
	iv := newInvalidator(app)
	db := paperDB(t, app)

	q1a := CachedView{Template: app.Query("Q1"), Params: []sqlparse.Value{sqlparse.StringVal("bear")},
		Result: mustExec(t, db, app.Query("Q1"), sqlparse.StringVal("bear"))}
	q2a := CachedView{Template: app.Query("Q2"), Params: []sqlparse.Value{sqlparse.IntVal(5)},
		Result: mustExec(t, db, app.Query("Q2"), sqlparse.IntVal(5))}
	q2b := CachedView{Template: app.Query("Q2"), Params: []sqlparse.Value{sqlparse.IntVal(2)},
		Result: mustExec(t, db, app.Query("Q2"), sqlparse.IntVal(2))}
	q3a := CachedView{Template: app.Query("Q3"), Params: []sqlparse.Value{sqlparse.StringVal("15213")},
		Result: mustExec(t, db, app.Query("Q3"), sqlparse.StringVal("15213"))}

	u := UpdateInstance{Template: app.Update("U1"), Params: []sqlparse.Value{sqlparse.IntVal(5)}}

	// Row 1 (blind): everything is invalidated.
	for _, v := range []CachedView{q1a, q2a, q2b, q3a} {
		if decide(iv, Blind, u, v) != Invalidate {
			t.Error("blind strategy must invalidate everything")
		}
	}
	// Row 2 (template): all of Q1 and Q2, but not Q3.
	if decide(iv, TemplateInspection, u, q1a) != Invalidate {
		t.Error("MTIS must invalidate Q1 instances")
	}
	if decide(iv, TemplateInspection, u, q2a) != Invalidate || decide(iv, TemplateInspection, u, q2b) != Invalidate {
		t.Error("MTIS must invalidate all Q2 instances")
	}
	if decide(iv, TemplateInspection, u, q3a) != DNI {
		t.Error("MTIS must not invalidate Q3 (ignorable)")
	}
	// Row 3 (statement): all Q1, and Q2 only if toy_id = 5.
	if decide(iv, StatementInspection, u, q1a) != Invalidate {
		t.Error("MSIS must invalidate Q1 (no parameter overlap)")
	}
	if decide(iv, StatementInspection, u, q2a) != Invalidate {
		t.Error("MSIS must invalidate Q2 with toy_id=5")
	}
	if decide(iv, StatementInspection, u, q2b) != DNI {
		t.Error("MSIS must not invalidate Q2 with toy_id=2")
	}
	// Row 4 (view): Q1 only if toy 5 is in the result; it is a kite, so
	// the 'bear' result does not contain it.
	if decide(iv, ViewInspection, u, q1a) != DNI {
		t.Error("MVIS must not invalidate Q1('bear') for deletion of toy 5")
	}
	if decide(iv, ViewInspection, u, q2a) != Invalidate {
		t.Error("MVIS must invalidate Q2 with toy_id=5")
	}
}

// TestViewInsertTopK reproduces the §4.4 insertion/top-k reasoning: an
// inserted row that sorts past the cached cutoff does not invalidate.
func TestViewInsertTopK(t *testing.T) {
	app := richToystore()
	iv := newInvalidator(app)
	db := paperDB(t, app)
	q5 := app.Query("Q5") // top-3 by qty DESC: kite(25), bear(10), bear(7)
	v := CachedView{Template: q5, Result: mustExec(t, db, q5)}

	low := UpdateInstance{Template: app.Update("U3"),
		Params: []sqlparse.Value{sqlparse.IntVal(50), sqlparse.StringVal("pogo"), sqlparse.IntVal(5)}}
	if decide(iv, ViewInspection, low, v) != DNI {
		t.Error("row below the cutoff must not invalidate")
	}
	high := UpdateInstance{Template: app.Update("U3"),
		Params: []sqlparse.Value{sqlparse.IntVal(51), sqlparse.StringVal("jet"), sqlparse.IntVal(100)}}
	if decide(iv, ViewInspection, high, v) != Invalidate {
		t.Error("row above the cutoff must invalidate")
	}
	// Statement inspection cannot tell the difference.
	if decide(iv, StatementInspection, low, v) != Invalidate {
		t.Error("MSIS must invalidate top-k on any qualifying insertion")
	}
	// Tie with the cutoff row: the engine breaks order ties on full tuple
	// content, which the cached view may not preserve — conservative
	// invalidation.
	tie := UpdateInstance{Template: app.Update("U3"),
		Params: []sqlparse.Value{sqlparse.IntVal(52), sqlparse.StringVal("twin"), sqlparse.IntVal(7)}}
	if decide(iv, ViewInspection, tie, v) != Invalidate {
		t.Error("tied row's cutoff position is unknown; must invalidate")
	}
}

// TestViewInsertMax reproduces §4.4 example (b): MAX(qty)=25 cached; an
// insertion with qty 10 cannot change it, one with qty 30 can.
func TestViewInsertMax(t *testing.T) {
	app := richToystore()
	iv := newInvalidator(app)
	db := paperDB(t, app)
	q6 := app.Query("Q6")
	v := CachedView{Template: q6, Result: mustExec(t, db, q6)}

	small := UpdateInstance{Template: app.Update("U3"),
		Params: []sqlparse.Value{sqlparse.IntVal(60), sqlparse.StringVal("x"), sqlparse.IntVal(10)}}
	big := UpdateInstance{Template: app.Update("U3"),
		Params: []sqlparse.Value{sqlparse.IntVal(61), sqlparse.StringVal("y"), sqlparse.IntVal(30)}}
	equal := UpdateInstance{Template: app.Update("U3"),
		Params: []sqlparse.Value{sqlparse.IntVal(62), sqlparse.StringVal("z"), sqlparse.IntVal(25)}}
	if decide(iv, ViewInspection, small, v) != DNI {
		t.Error("insertion below cached MAX must not invalidate")
	}
	if decide(iv, ViewInspection, big, v) != Invalidate {
		t.Error("insertion above cached MAX must invalidate")
	}
	if decide(iv, ViewInspection, equal, v) != DNI {
		t.Error("insertion equal to cached MAX leaves it unchanged")
	}
	if decide(iv, StatementInspection, small, v) != Invalidate {
		t.Error("MSIS must invalidate MAX on any insertion")
	}
	// MIN mirror.
	q10 := app.Query("Q10")
	vmin := CachedView{Template: q10, Result: mustExec(t, db, q10)} // MIN = 3
	if decide(iv, ViewInspection, big, vmin) != DNI {
		t.Error("insertion above cached MIN must not invalidate")
	}
	lower := UpdateInstance{Template: app.Update("U3"),
		Params: []sqlparse.Value{sqlparse.IntVal(63), sqlparse.StringVal("w"), sqlparse.IntVal(1)}}
	if decide(iv, ViewInspection, lower, vmin) != Invalidate {
		t.Error("insertion below cached MIN must invalidate")
	}
}

// TestViewModify reproduces the §4.4 modification example: UPDATE toys SET
// qty=10 WHERE toy_id=5 versus SELECT toy_name FROM toys WHERE qty > p.
// (Q7 preserves no key, so the identifiable variant uses Q4.) The table
// covers both rules of viewModify on the paper database — toys (1,bear,10)
// (2,truck,3) (3,bear,7) (5,kite,25) — and every case is checked against
// re-execution: DNI must leave the result as it was.
func TestViewModify(t *testing.T) {
	app := richToystore()
	s := app.Schema
	app.Queries = append(app.Queries,
		template.MustNew("QK", s, "SELECT toy_id, toy_name FROM toys WHERE qty>=?"),
		template.MustNew("QO", s, "SELECT toy_id, toy_name FROM toys ORDER BY qty DESC LIMIT 3"),
		template.MustNew("QL", s, "SELECT toy_id, qty FROM toys LIMIT 3"),
		template.MustNew("QG", s, "SELECT toy_id, qty FROM toys WHERE toy_name=? GROUP BY toy_id, qty"),
	)
	iv := newInvalidator(app)
	db := paperDB(t, app)

	ints := func(vs ...int64) []sqlparse.Value {
		out := make([]sqlparse.Value, len(vs))
		for i, v := range vs {
			out[i] = sqlparse.IntVal(v)
		}
		return out
	}
	truck := []sqlparse.Value{sqlparse.StringVal("truck")}
	cases := []struct {
		name    string
		query   string
		qParams []sqlparse.Value
		uParams []sqlparse.Value // U4: qty, toy_id
		want    Decision
	}{
		// Frame rule. Q4('truck') = {(2,3)}.
		{"absent, SET disjoint from WHERE (the §4.4 example)", "Q4", truck, ints(10, 5), DNI},
		{"row present", "Q4", truck, ints(10, 2), Invalidate},
		// QK(20) = {(5,kite)}: qty is both SET and compared.
		{"absent, SET on a WHERE column, new value fails", "QK", ints(20), ints(4, 2), DNI},
		{"absent, SET on a WHERE column, new value satisfies", "QK", ints(20), ints(30, 2), Invalidate},
		// Top-k boundary. Q5 = {(5,25) (1,10) (3,7)}; toy 2 is past the cutoff.
		{"LIMIT-bound, order key set strictly after the cutoff", "Q5", nil, ints(5, 2), DNI},
		{"LIMIT-bound, order key set strictly before the cutoff", "Q5", nil, ints(8, 2), Invalidate},
		{"LIMIT-bound, order key tied with the cutoff row", "Q5", nil, ints(7, 2), Invalidate},
		{"LIMIT-bound, row present", "Q5", nil, ints(1, 1), Invalidate},
		{"LIMIT-bound, order key not preserved", "QO", nil, ints(5, 2), Invalidate},
		{"LIMIT without ORDER BY", "QL", nil, ints(5, 5), Invalidate},
		{"GROUP BY", "QG", truck, ints(10, 5), Invalidate},
		{"aggregate", "Q6", nil, ints(5, 2), Invalidate},
		// Row identity is the engine's equality, not representation.
		{"key bound as 5.0 against an integer 5 row", "Q4", []sqlparse.Value{sqlparse.StringVal("kite")},
			[]sqlparse.Value{sqlparse.IntVal(10), sqlparse.FloatVal(5)}, Invalidate},
		{"NaN key, which no row has", "Q4", truck, []sqlparse.Value{sqlparse.IntVal(10), sqlparse.FloatVal(math.NaN())}, DNI},
	}
	for _, c := range cases {
		q := app.Query(c.query)
		v := CachedView{Template: q, Params: c.qParams, Result: mustExec(t, db, q, c.qParams...)}
		u := UpdateInstance{Template: app.Update("U4"), Params: c.uParams}
		got := decide(iv, ViewInspection, u, v)
		if got != c.want {
			t.Errorf("%s: MVIS decided %v, want %v", c.name, got, c.want)
		}
		if got == DNI {
			db2 := db.Clone()
			if _, err := engine.ExecUpdate(db2, u.Template.Stmt, u.Params); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			ordered := len(q.Stmt.(*sqlparse.SelectStmt).OrderBy) > 0
			if after := mustExec(t, db2, q, c.qParams...); after.Fingerprint(ordered) != v.Result.Fingerprint(ordered) {
				t.Errorf("%s: DNI, but the update changed the result", c.name)
			}
		}
	}

	u := UpdateInstance{Template: app.Update("U4"), Params: ints(10, 5)}
	// Against Q2 (toy_id=2), modifying toy 5 is ruled out at statement
	// level already.
	q2 := app.Query("Q2")
	v2 := CachedView{Template: q2, Params: []sqlparse.Value{sqlparse.IntVal(2)},
		Result: mustExec(t, db, q2, sqlparse.IntVal(2))}
	if decide(iv, StatementInspection, u, v2) != DNI {
		t.Error("MSIS must rule out modification of a different key")
	}

	// Q11 with a band the post-image misses: row 5 absent from result,
	// post-image qty=10 outside [11, 14] -> DNI at view level, Invalidate
	// at statement level (pre-image qty unknown)? Pre-image: toy_id=5 with
	// qty in [11,14] is satisfiable, so MSIS invalidates. The view shows
	// toy 5 absent... but Q11 preserves no key, so MVIS stays conservative.
	q11 := app.Query("Q11")
	v11 := CachedView{Template: q11,
		Params: []sqlparse.Value{sqlparse.IntVal(11), sqlparse.IntVal(14)},
		Result: &engine.Result{Columns: []string{"toy_name"}, Vals: []sqlparse.Value{sqlparse.StringVal("bear")}}}
	if decide(iv, ViewInspection, u, v11) != Invalidate {
		t.Error("MVIS must stay conservative without a preserved key")
	}
}

func TestViewModifyIdentifiable(t *testing.T) {
	app := richToystore()
	s := app.Schema
	qk := template.MustNew("QK", s, "SELECT toy_id, toy_name FROM toys WHERE qty>=?")
	app.Queries = append(app.Queries, qk)
	iv := newInvalidator(app)
	db := paperDB(t, app)

	// QK(20) = {(5, kite)}. Modify toy 2's qty to 4: row 2 absent, post-
	// image 4 < 20 -> DNI.
	v := CachedView{Template: qk, Params: []sqlparse.Value{sqlparse.IntVal(20)},
		Result: mustExec(t, db, qk, sqlparse.IntVal(20))}
	u := UpdateInstance{Template: app.Update("U4"),
		Params: []sqlparse.Value{sqlparse.IntVal(4), sqlparse.IntVal(2)}}
	if decide(iv, ViewInspection, u, v) != DNI {
		t.Error("identifiable absent row with failing post-image must not invalidate")
	}
	// Post-image enters the band: invalidate.
	u2 := UpdateInstance{Template: app.Update("U4"),
		Params: []sqlparse.Value{sqlparse.IntVal(30), sqlparse.IntVal(2)}}
	if decide(iv, ViewInspection, u2, v) != Invalidate {
		t.Error("post-image entering the result must invalidate")
	}
	// Modified row in the result: invalidate.
	u3 := UpdateInstance{Template: app.Update("U4"),
		Params: []sqlparse.Value{sqlparse.IntVal(30), sqlparse.IntVal(5)}}
	if decide(iv, ViewInspection, u3, v) != Invalidate {
		t.Error("modification of an in-result row must invalidate")
	}
}

func TestViewDeleteResultCheck(t *testing.T) {
	app := richToystore()
	iv := newInvalidator(app)
	db := paperDB(t, app)
	// Q4('bear') = {(1,10), (3,7)}. Deleting toy 5 cannot affect it; MVIS
	// sees toy 5 absent from the preserved toy_id column.
	q4 := app.Query("Q4")
	v := CachedView{Template: q4, Params: []sqlparse.Value{sqlparse.StringVal("bear")},
		Result: mustExec(t, db, q4, sqlparse.StringVal("bear"))}
	u5 := UpdateInstance{Template: app.Update("U1"), Params: []sqlparse.Value{sqlparse.IntVal(5)}}
	u1 := UpdateInstance{Template: app.Update("U1"), Params: []sqlparse.Value{sqlparse.IntVal(1)}}
	if decide(iv, ViewInspection, u5, v) != DNI {
		t.Error("deleting an absent row must not invalidate")
	}
	if decide(iv, ViewInspection, u1, v) != Invalidate {
		t.Error("deleting a present row must invalidate")
	}
	// Range deletion: DELETE FROM toys WHERE qty<6 — no bear has qty<6.
	uRange := UpdateInstance{Template: app.Update("U5"), Params: []sqlparse.Value{sqlparse.IntVal(6)}}
	if decide(iv, ViewInspection, uRange, v) != DNI {
		t.Error("range deletion below all result rows must not invalidate")
	}
	uRange2 := UpdateInstance{Template: app.Update("U5"), Params: []sqlparse.Value{sqlparse.IntVal(8)}}
	if decide(iv, ViewInspection, uRange2, v) != Invalidate {
		t.Error("range deletion covering a result row must invalidate")
	}
}

func TestStatementDeleteRangeDisjoint(t *testing.T) {
	app := richToystore()
	iv := newInvalidator(app)
	// DELETE qty<5 cannot affect Q7 qty>10 regardless of data.
	u := UpdateInstance{Template: app.Update("U5"), Params: []sqlparse.Value{sqlparse.IntVal(5)}}
	v := CachedView{Template: app.Query("Q7"), Params: []sqlparse.Value{sqlparse.IntVal(10)}}
	if decide(iv, StatementInspection, u, v) != DNI {
		t.Error("disjoint ranges must not invalidate")
	}
	// Overlapping ranges must.
	u2 := UpdateInstance{Template: app.Update("U5"), Params: []sqlparse.Value{sqlparse.IntVal(50)}}
	if decide(iv, StatementInspection, u2, v) != Invalidate {
		t.Error("overlapping ranges must invalidate")
	}
}

func TestStatementInsertJoinShield(t *testing.T) {
	app := richToystore()
	iv := newInvalidator(app)
	// Inserting a customer cannot affect Q9 (join shielded by the foreign
	// key): even statement inspection can rule it out.
	u := UpdateInstance{Template: app.Update("U6"),
		Params: []sqlparse.Value{sqlparse.IntVal(999), sqlparse.StringVal("n")}}
	v := CachedView{Template: app.Query("Q9"), Params: []sqlparse.Value{sqlparse.StringVal("15213")}}
	// Template inspection already handles it via the constraint analysis.
	if decide(iv, TemplateInspection, u, v) != DNI {
		t.Error("MTIS with constraints must rule out parent insertions")
	}
	// Inserting a credit card with a non-matching zip is ruled out only at
	// statement level.
	u2 := UpdateInstance{Template: app.Update("U2"),
		Params: []sqlparse.Value{sqlparse.IntVal(1), sqlparse.StringVal("4111"), sqlparse.StringVal("99999")}}
	if decide(iv, TemplateInspection, u2, v) != Invalidate {
		t.Error("MTIS must invalidate child insertions")
	}
	if decide(iv, StatementInspection, u2, v) != DNI {
		t.Error("MSIS must rule out non-matching zip")
	}
	u3 := UpdateInstance{Template: app.Update("U2"),
		Params: []sqlparse.Value{sqlparse.IntVal(1), sqlparse.StringVal("4111"), sqlparse.StringVal("15213")}}
	if decide(iv, StatementInspection, u3, v) != Invalidate {
		t.Error("MSIS must invalidate matching zip")
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct {
		eu, eq template.Exposure
		want   Class
	}{
		{template.ExpBlind, template.ExpView, Blind},
		{template.ExpStmt, template.ExpBlind, Blind},
		{template.ExpTemplate, template.ExpView, TemplateInspection},
		{template.ExpStmt, template.ExpTemplate, TemplateInspection},
		{template.ExpStmt, template.ExpStmt, StatementInspection},
		{template.ExpStmt, template.ExpView, ViewInspection},
	}
	for _, c := range cases {
		if got := ClassFor(c.eu, c.eq); got != c.want {
			t.Errorf("ClassFor(%v, %v) = %v, want %v", c.eu, c.eq, got, c.want)
		}
	}
}

func TestDecisionAndClassStrings(t *testing.T) {
	if Invalidate.String() != "I" || DNI.String() != "DNI" {
		t.Error("Decision strings")
	}
	want := map[Class]string{Blind: "MBS", TemplateInspection: "MTIS", StatementInspection: "MSIS", ViewInspection: "MVIS"}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%v.String() = %q", uint8(c), c.String())
		}
	}
}

// TestStrategyContainment checks the Figure 4 relationship empirically:
// whenever a more-informed class invalidates, so does every less-informed
// class (correct blind ⊆ correct TIS ⊆ correct SIS ⊆ correct VIS in terms
// of invalidation decisions).
func TestStrategyContainment(t *testing.T) {
	for _, seed := range propertySeeds(t, 7) {
		strategyContainment(t, seed)
	}
}

func strategyContainment(t *testing.T, seed int64) {
	app := richToystore()
	iv := newInvalidator(app)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 200; trial++ {
		db := randomToystoreDB(t, rng, app)
		u := app.Updates[rng.Intn(len(app.Updates))]
		q := app.Queries[rng.Intn(len(app.Queries))]
		uParams := randomParams(rng, db, u)
		qParams := randomParams(rng, db, q)
		res, err := engine.ExecQuery(db, q.Stmt.(*sqlparse.SelectStmt), qParams)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ui := UpdateInstance{Template: u, Params: uParams}
		view := CachedView{Template: q, Params: qParams, Result: res}
		dB := decide(iv, Blind, ui, view)
		dT := decide(iv, TemplateInspection, ui, view)
		dS := decide(iv, StatementInspection, ui, view)
		dV := decide(iv, ViewInspection, ui, view)
		if dB < dT || dT < dS || dS < dV {
			t.Fatalf("seed %d trial %d: containment violated for %s%v/%s%v: B=%v T=%v S=%v V=%v",
				seed, trial, u.ID, uParams, q.ID, qParams, dB, dT, dS, dV)
		}
	}
}
