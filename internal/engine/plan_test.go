package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/schema"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/workload"
)

func benchmarks() []workload.Benchmark {
	return []workload.Benchmark{apps.NewBookstore(), apps.NewAuction(), apps.NewBBoard(), apps.NewToystoreBench()}
}

// sameResult compares two results field by field, floats by bit pattern:
// stricter than reflect.DeepEqual (which calls -0.0 and 0.0 equal) and
// usable on NaN (which DeepEqual calls unequal to itself). A nil and an
// empty Rows are the same result: zero rows.
func sameResult(got, want *Result) error {
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		return fmt.Errorf("Columns = %v, want %v", got.Columns, want.Columns)
	}
	if got.RowsScanned != want.RowsScanned {
		return fmt.Errorf("RowsScanned = %d, want %d", got.RowsScanned, want.RowsScanned)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, want %d\n got: %v\nwant: %v", len(got.Rows), len(want.Rows), got.Rows, want.Rows)
	}
	for i := range got.Rows {
		g, w := got.Rows[i], want.Rows[i]
		same := len(g) == len(w)
		for j := 0; same && j < len(g); j++ {
			same = g[j].Kind == w[j].Kind && g[j].Int == w[j].Int && g[j].Str == w[j].Str &&
				math.Float64bits(g[j].Float) == math.Float64bits(w[j].Float)
		}
		if !same {
			return fmt.Errorf("row %d = %v, want %v", i, g, w)
		}
	}
	return nil
}

func TestAllAppTemplatesCompile(t *testing.T) {
	for _, b := range benchmarks() {
		app := b.App()
		for _, q := range app.Queries {
			p, err := Compile(app.Schema, q.Stmt.(*sqlparse.SelectStmt))
			if err != nil {
				t.Errorf("%s %s: %v", b.Name(), q.ID, err)
				continue
			}
			if p.NumParams != q.NumParams {
				t.Errorf("%s %s: plan takes %d parameters, template %d", b.Name(), q.ID, p.NumParams, q.NumParams)
			}
		}
	}
}

// TestPlanMatchesInterpreter replays sessions of all four applications:
// every query runs through its template's plan — compiled once, before
// any data changes — and through the retained interpreter, and the two
// must agree on Columns, Rows in order, and RowsScanned. The sessions'
// updates are applied in between, so plans run over permuted index
// posting lists and tombstoned rows; after each update every template
// seen so far is re-run with its latest parameters.
func TestPlanMatchesInterpreter(t *testing.T) {
	for _, b := range benchmarks() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			app := b.App()
			rng := rand.New(rand.NewSource(1))
			db := storage.NewDatabase(app.Schema)
			if err := b.Populate(db, rng); err != nil {
				t.Fatal(err)
			}
			plans := map[string]*Plan{}
			for _, q := range app.Queries {
				p, err := Compile(app.Schema, q.Stmt.(*sqlparse.SelectStmt))
				if err != nil {
					t.Fatal(err)
				}
				plans[q.ID] = p
			}
			check := func(op workload.Op) {
				t.Helper()
				sel := op.Template.Stmt.(*sqlparse.SelectStmt)
				want, err := interpExecQuery(db, sel, op.Params)
				if err != nil {
					t.Fatalf("%s%v: interpreter: %v", op.Template.ID, op.Params, err)
				}
				got, err := plans[op.Template.ID].Run(db, op.Params)
				if err != nil {
					t.Fatalf("%s%v: plan: %v", op.Template.ID, op.Params, err)
				}
				if err := sameResult(got, want); err != nil {
					t.Fatalf("%s%v: %v", op.Template.ID, op.Params, err)
				}
			}

			latest := map[string]workload.Op{}
			updates := 0
			sess := b.NewSession(rng)
			for page := 0; page < 300; page++ {
				for _, op := range sess.NextPage() {
					if op.Template.Kind.IsUpdate() {
						if _, err := ExecUpdate(db, op.Template.Stmt, op.Params); err != nil {
							t.Fatalf("%s%v: %v", op.Template.ID, op.Params, err)
						}
						updates++
						for _, seen := range latest {
							check(seen)
						}
						continue
					}
					check(op)
					latest[op.Template.ID] = op
				}
			}
			if updates == 0 {
				t.Error("session applied no update")
			}
			for _, q := range app.Queries {
				if _, ok := latest[q.ID]; !ok {
					t.Errorf("template %s not exercised by 300 session pages", q.ID)
				}
			}
		})
	}
}

func TestParamArity(t *testing.T) {
	db := toyDB(t)
	empty := storage.NewDatabase(db.Schema)
	one, two := []sqlparse.Value{sqlparse.IntVal(1)}, []sqlparse.Value{sqlparse.IntVal(1), sqlparse.IntVal(2)}
	for _, tc := range []struct {
		name   string
		db     *storage.Database
		sql    string
		params []sqlparse.Value
		ok     bool
	}{
		{"exact", db, "SELECT toy_id FROM toys WHERE qty<?", one, true},
		{"none needed", db, "SELECT toy_id FROM toys", nil, true},
		{"short", db, "SELECT toy_id FROM toys WHERE qty<?", nil, false},
		{"short, second of two", db, "SELECT toy_id FROM toys WHERE qty<? AND toy_id=?", one, false},
		{"long", db, "SELECT toy_id FROM toys WHERE qty<?", two, false},
		{"long, none needed", db, "SELECT toy_id FROM toys", one, false},
		// No row ever reaches the operand, which is how a short slice used
		// to slip through.
		{"short over an empty table", empty, "SELECT toy_id FROM toys WHERE qty<?", nil, false},
		{"short behind a failing predicate", db, "SELECT toy_id FROM toys WHERE toy_id=? AND qty<?", []sqlparse.Value{sqlparse.IntVal(404)}, false},
	} {
		_, err := ExecQuery(tc.db, sqlparse.MustParse(tc.sql).(*sqlparse.SelectStmt), tc.params)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), "requires parameter")):
			t.Errorf("%s: err = %v, want a parameter-count error", tc.name, err)
		}
	}
}

// A plan belongs to the schema it was compiled against.
func TestPlanRejectsForeignDatabase(t *testing.T) {
	a, b := toyDB(t), toyDB(t)
	p, err := Compile(a.Schema, sqlparse.MustParse("SELECT toy_id FROM toys").(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(a.Clone(), nil); err != nil {
		t.Errorf("clone of the compiled-for database refused: %v", err)
	}
	if _, err := p.Run(b, nil); err == nil {
		t.Error("plan ran against a database of another schema object")
	}
}

// Statements that used to fail at their first row, or panic on it, fail
// at Compile.
func TestCompileRejects(t *testing.T) {
	db := toyDB(t)
	for _, sql := range []string{
		"SELECT toy_id, SUM(qty) FROM toys GROUP BY toy_name",              // non-aggregated column outside GROUP BY
		"SELECT toy_name, SUM(qty) FROM toys GROUP BY toy_name ORDER BY n", // ORDER BY names no output column
		"SELECT SUM(toy_name) FROM toys",                                   // Value.AsFloat would panic
		"SELECT nosuch FROM toys",
		"SELECT toy_id FROM toys WHERE nosuch=?",
		"SELECT toy_id FROM toys, toys",
	} {
		if _, err := Compile(db.Schema, sqlparse.MustParse(sql).(*sqlparse.SelectStmt)); err == nil {
			t.Errorf("%q compiled", sql)
		}
	}
}

// Result rows are the caller's: they alias neither storage rows (which
// modifications rewrite in place) nor any scratch a later run reuses.
func TestResultOwnsItsRows(t *testing.T) {
	for _, sql := range []string{
		"SELECT toy_id, toy_name, qty FROM toys WHERE qty>=?",
		"SELECT toy_name, qty FROM toys WHERE qty>=? ORDER BY qty DESC, toy_id LIMIT 3",
		"SELECT toy_name, qty FROM toys WHERE qty>=? ORDER BY toy_name",
		"SELECT toy_name, SUM(qty) AS total, MAX(toy_id) FROM toys WHERE qty>=? GROUP BY toy_name ORDER BY total DESC LIMIT 2",
		"SELECT t1.toy_name, t2.qty FROM toys AS t1, toys AS t2 WHERE t1.toy_name=t2.toy_name AND t1.qty>=?",
	} {
		db := toyDB(t)
		p, err := Compile(db.Schema, sqlparse.MustParse(sql).(*sqlparse.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(db, []sqlparse.Value{sqlparse.IntVal(0)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() == 0 {
			t.Fatalf("%q: empty result proves nothing", sql)
		}
		kept := res.Clone()
		for id := int64(1); id <= 5; id++ {
			update(t, db, "UPDATE toys SET toy_name=?, qty=? WHERE toy_id=?",
				sqlparse.StringVal("overwritten"), sqlparse.IntVal(-id), sqlparse.IntVal(id))
		}
		update(t, db, "DELETE FROM toys WHERE toy_id=?", sqlparse.IntVal(2))
		for i := 0; i < 3; i++ {
			if _, err := p.Run(db, []sqlparse.Value{sqlparse.IntVal(-100)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sameResult(res, kept); err != nil {
			t.Errorf("%q: result changed after the database did: %v", sql, err)
		}
	}
}

// One plan, many goroutines: readers run it under a read lock the way the
// home server does and check each result against the interpreter under
// the same lock, while a writer applies updates under the write lock.
// Run with -race: the plan must be read-only and each run's scratch its
// own.
func TestPlanConcurrentRun(t *testing.T) {
	b := apps.NewBookstore()
	app := b.App()
	rng := rand.New(rand.NewSource(1))
	db := storage.NewDatabase(app.Schema)
	if err := b.Populate(db, rng); err != nil {
		t.Fatal(err)
	}
	// Several parameter lists per plan: goroutines running one plan with
	// different parameters share its scratch pool, and a run that saw
	// anything of another's would answer the wrong question.
	type query struct {
		sel    *sqlparse.SelectStmt
		plan   *Plan
		params [][]sqlparse.Value
	}
	ints := func(ns ...int64) (sets [][]sqlparse.Value) {
		for _, n := range ns {
			sets = append(sets, []sqlparse.Value{sqlparse.IntVal(n)})
		}
		return sets
	}
	subjects := [][]sqlparse.Value{{sqlparse.StringVal("SUBJ00")}, {sqlparse.StringVal("SUBJ01")}, {sqlparse.StringVal("no such subject")}}
	var queries []query
	for _, c := range []struct {
		id     string
		params [][]sqlparse.Value
	}{
		{"Q4", [][]sqlparse.Value{nil}}, // GROUP BY … ORDER BY … LIMIT
		{"Q6", ints(7, 8, 9)},           // join
		{"Q3", subjects},                // ORDER BY … DESC LIMIT: the heap
		{"Q10", subjects},               // ORDER BY … LIMIT
		{"Q28", subjects},               // join, ORDER BY … LIMIT
		{"Q23", ints(1, 2, 3)},          // ORDER BY without LIMIT: the full sort
		{"Q21", subjects},               // COUNT(*): one group
		{"Q24", subjects},               // AVG
		{"Q11", ints(1, 2)},
		{"Q13", ints(7, 8)},
	} {
		sel := app.Query(c.id).Stmt.(*sqlparse.SelectStmt)
		p, err := Compile(app.Schema, sel)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, query{sel, p, c.params})
	}

	var (
		mu   sync.RWMutex
		wg   sync.WaitGroup
		done = make(chan struct{})
	)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := queries[(w+i)%len(queries)]
				params := q.params[(w+i/len(queries))%len(q.params)]
				mu.RLock()
				got, err := q.plan.Run(db, params)
				want, werr := interpExecQuery(db, q.sel, params)
				mu.RUnlock()
				if err != nil || werr != nil {
					t.Errorf("plan: %v, interpreter: %v", err, werr)
					return
				}
				if err := sameResult(got, want); err != nil {
					t.Errorf("%s%v: %v", q.sel, params, err)
					return
				}
			}
		}(w)
	}
	sess := b.NewSession(rng)
	for applied := 0; applied < 150; {
		for _, op := range sess.NextPage() {
			if !op.Template.Kind.IsUpdate() {
				continue
			}
			mu.Lock()
			_, err := ExecUpdate(db, op.Template.Stmt, op.Params)
			mu.Unlock()
			if err != nil {
				t.Fatalf("%s%v: %v", op.Template.ID, op.Params, err)
			}
			applied++
		}
	}
	close(done)
	wg.Wait()
}

// fuzzSchema is the union of the schemas the engine's tests query, so the
// whole statement corpus of engine_test.go, engine_extra_test.go,
// partial_insert_test.go and the applications' top-k templates parse into
// something the fuzzer can mutate from: single and composite primary
// keys, a foreign key, a float column, a three-table chain.
func fuzzSchema() *schema.Schema {
	s := schema.New()
	i, f, str := schema.TInt, schema.TFloat, schema.TString
	s.MustAddTable("toys", []schema.Column{{Name: "toy_id", Type: i}, {Name: "toy_name", Type: str}, {Name: "qty", Type: i}}, "toy_id")
	s.MustAddTable("customers", []schema.Column{{Name: "cust_id", Type: i}, {Name: "cust_name", Type: str}}, "cust_id")
	s.MustAddTable("credit_card", []schema.Column{{Name: "cid", Type: i}, {Name: "number", Type: str}, {Name: "zip_code", Type: str}}, "cid")
	s.MustAddForeignKey("credit_card", "cid", "customers", "cust_id")
	s.MustAddTable("lines", []schema.Column{{Name: "order_id", Type: i}, {Name: "line_no", Type: i}, {Name: "item", Type: str}, {Name: "qty", Type: i}}, "order_id", "line_no")
	s.MustAddTable("a", []schema.Column{{Name: "ai", Type: i}, {Name: "av", Type: str}}, "ai")
	s.MustAddTable("b", []schema.Column{{Name: "bi", Type: i}, {Name: "ba", Type: i}}, "bi")
	s.MustAddTable("c", []schema.Column{{Name: "ci", Type: i}, {Name: "cb", Type: i}}, "ci")
	s.MustAddTable("m", []schema.Column{{Name: "id", Type: i}, {Name: "x", Type: f}}, "id")
	s.MustAddTable("r", []schema.Column{{Name: "id", Type: i}, {Name: "k", Type: i}, {Name: "v", Type: str}}, "id")
	return s
}

// fuzzValue draws a value of a column's type from a deliberately narrow
// range — duplicates are what exercise tie-breaks and grouping — with
// NULLs (what a partial insert leaves) and, for floats, both zeros and NaN.
func fuzzValue(rng *rand.Rand, typ schema.Type) sqlparse.Value {
	if rng.Intn(8) == 0 {
		return sqlparse.Null()
	}
	switch typ {
	case schema.TInt:
		return sqlparse.IntVal(int64(rng.Intn(6)))
	case schema.TFloat:
		return sqlparse.FloatVal([]float64{0, math.Copysign(0, -1), math.NaN(), 0.5, 1, 2, 2.5}[rng.Intn(7)])
	default:
		return sqlparse.StringVal(fmt.Sprintf("s%d", rng.Intn(4)))
	}
}

// fuzzDB fills the fuzz schema from a seed, indexes a seed-chosen subset
// of columns, and then deletes and modifies rows so that scans cross
// tombstones and posting lists are no longer in insertion order.
func fuzzDB(t testing.TB, rng *rand.Rand) *storage.Database {
	s := fuzzSchema()
	db := storage.NewDatabase(s)
	for _, tab := range s.Tables() {
		for _, col := range tab.Columns {
			if !tab.IsPrimaryKeyColumn(col.Name) && rng.Intn(2) == 0 {
				if err := db.Table(tab.Name).CreateIndex(col.Name); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, tab := range s.Tables() {
		pk := tab.PKIndexes()
		for n, rows := 0, 4+rng.Intn(12); n < rows; n++ {
			row := make(storage.Row, len(tab.Columns))
			for ci, col := range tab.Columns {
				row[ci] = fuzzValue(rng, col.Type)
			}
			// Key columns: dense and never NULL, so most inserts land.
			row[pk[0]] = sqlparse.IntVal(int64(n))
			for _, ci := range pk[1:] {
				row[ci] = sqlparse.IntVal(int64(rng.Intn(3)))
			}
			_ = db.Insert(tab.Name, row) // a duplicate key or missing FK parent just leaves fewer rows
		}
	}
	for _, tab := range s.Tables() {
		name := tab.Name
		victim := sqlparse.IntVal(int64(rng.Intn(6)))
		if _, err := db.Delete(name, func(r storage.Row) bool { return r[tab.PKIndexes()[0]].Equal(victim) }); err != nil {
			t.Fatal(err)
		}
		var keys [][]sqlparse.Value
		db.Table(name).Scan(func(r storage.Row) bool {
			var key []sqlparse.Value
			for _, ci := range tab.PKIndexes() {
				key = append(key, r[ci])
			}
			keys = append(keys, key)
			return true
		})
		for _, key := range keys {
			if rng.Intn(3) != 0 {
				continue
			}
			set := map[int]sqlparse.Value{}
			for ci, col := range tab.Columns {
				if !tab.IsPrimaryKeyColumn(col.Name) {
					set[ci] = fuzzValue(rng, col.Type)
				}
			}
			if _, err := db.UpdateByPK(name, key, set); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// fuzzParams binds a statement's parameters: usually a value of the type
// of the column the parameter is compared with, sometimes the other
// numeric kind (an int probe into a float column finds nothing through an
// index and everything equal through a scan — both executors must agree
// which), sometimes anything.
func fuzzParams(rng *rand.Rand, s *schema.Schema, q *sqlparse.SelectStmt) []sqlparse.Value {
	params := make([]sqlparse.Value, sqlparse.NumParams(q))
	res, err := schema.NewResolver(s, q.From)
	for i := range params {
		params[i] = fuzzValue(rng, schema.Type(rng.Intn(3)))
	}
	if err != nil {
		return params
	}
	for _, p := range q.Where {
		for _, side := range [2][2]sqlparse.Operand{{p.Left, p.Right}, {p.Right, p.Left}} {
			if side[0].Kind != sqlparse.OpParam || side[1].Kind != sqlparse.OpColumn || side[0].Param >= len(params) {
				continue
			}
			rc, err := res.Resolve(side[1].Col)
			if err != nil || rng.Intn(5) == 0 {
				continue
			}
			v := fuzzValue(rng, res.Tables()[rc.FromIndex].Columns[rc.ColIndex].Type)
			switch {
			case v.Kind == sqlparse.KindInt && rng.Intn(4) == 0:
				v = sqlparse.FloatVal(float64(v.Int))
			case v.Kind == sqlparse.KindFloat && v.Float == math.Trunc(v.Float) && rng.Intn(4) == 0:
				v = sqlparse.IntVal(int64(v.Float))
			}
			params[side[0].Param] = v
		}
	}
	return params
}

// FuzzPlanMatchesInterpreter: any select statement the parser accepts,
// over a seed-generated database, runs the same through a compiled plan
// and through the interpreter — same error-or-not, same Columns, same
// Rows in the same order, same RowsScanned.
func FuzzPlanMatchesInterpreter(f *testing.F) {
	corpus := []string{
		// engine_test.go
		"SELECT toy_id FROM toys WHERE toy_name=?",
		"SELECT qty FROM toys WHERE toy_id=?",
		"SELECT * FROM toys WHERE toy_id=?",
		"SELECT toy_id FROM toys WHERE qty>?",
		"SELECT cust_name FROM customers, credit_card WHERE cust_id=cid AND zip_code=?",
		"SELECT t1.toy_id, t1.qty, t2.toy_id, t2.qty FROM toys AS t1, toys AS t2 WHERE t1.toy_name=? AND t2.toy_name=? AND t1.qty>t2.qty",
		"SELECT toy_id, qty FROM toys ORDER BY qty DESC, toy_id LIMIT 3",
		"SELECT toy_id FROM toys ORDER BY qty",
		"SELECT MAX(qty) FROM toys",
		"SELECT MAX(qty) FROM toys WHERE toy_name=?",
		"SELECT COUNT(*) FROM toys WHERE toy_name=?",
		"SELECT toy_name, SUM(qty) AS total, COUNT(*) AS n FROM toys GROUP BY toy_name ORDER BY total DESC",
		"SELECT toy_name, SUM(qty) AS total FROM toys GROUP BY toy_name ORDER BY total DESC LIMIT 2",
		"SELECT AVG(qty) FROM toys",
		"SELECT SUM(qty) FROM toys",
		"SELECT toy_id, SUM(qty) FROM toys GROUP BY toy_name",
		"SELECT cust_name, number FROM credit_card, customers WHERE cid=cust_id",
		// engine_extra_test.go
		"SELECT qty FROM lines WHERE order_id=? AND line_no=?",
		"SELECT line_no FROM lines WHERE order_id=?",
		"SELECT av, ci FROM a, b, c WHERE ba=ai AND cb=bi AND ai=?",
		"SELECT id FROM m WHERE x>?",
		"SELECT AVG(x) FROM m",
		"SELECT id FROM m WHERE x=?",
		"SELECT toy_name, qty FROM toys ORDER BY toy_name, qty DESC",
		"SELECT toy_id FROM toys LIMIT 0",
		"SELECT toy_id FROM toys ORDER BY toy_id LIMIT 100",
		"SELECT toy_name, MIN(qty), MAX(qty), COUNT(qty), AVG(qty) FROM toys GROUP BY toy_name ORDER BY toy_name",
		"SELECT COUNT(toy_name) FROM toys",
		"SELECT t1.toy_id, t2.toy_id FROM toys AS t1, toys AS t2 WHERE t1.toy_name=t2.toy_name AND t1.toy_id<t2.toy_id",
		"SELECT id, v FROM r WHERE k>=? ORDER BY id",
		"SELECT k, COUNT(*) FROM r GROUP BY k ORDER BY k",
		"SELECT id FROM r WHERE k=? AND v=?",
		"SELECT qty, qty FROM toys WHERE toy_id=?",
		"SELECT qty AS amount FROM toys WHERE toy_id=?",
		// partial_insert_test.go
		"SELECT toy_id FROM toys WHERE qty<? AND toy_id=?",
		"SELECT toy_id FROM toys WHERE qty>=? AND toy_id=?",
		// Float group keys (-0.0, 0.0 and NaN are three groups), float order
		// keys, constants, LIMIT without ORDER BY, ORDER BY … LIMIT 0.
		"SELECT x, COUNT(*), MIN(id) FROM m GROUP BY x ORDER BY x DESC LIMIT 3",
		"SELECT x, SUM(x), MAX(x) FROM m GROUP BY x",
		"SELECT id, x FROM m ORDER BY x, id DESC LIMIT 4",
		"SELECT id FROM m WHERE x=2",
		"SELECT bi FROM b, m WHERE ba=x",
		"SELECT toy_id FROM toys WHERE qty>=2 LIMIT 2",
		"SELECT toy_name FROM toys ORDER BY toy_name LIMIT 0",
		"SELECT item, SUM(qty) AS total FROM lines GROUP BY item ORDER BY total LIMIT 1",
	}
	// topk_parity_test.go's corpus is the applications' ORDER BY … LIMIT
	// templates; they name other schemas, so here they seed the statement
	// shapes (and mostly exercise Compile's error paths).
	for _, b := range benchmarks() {
		for _, q := range b.App().Queries {
			if sel := q.Stmt.(*sqlparse.SelectStmt); sel.Limit >= 0 && len(sel.OrderBy) > 0 {
				corpus = append(corpus, q.SQL)
			}
		}
	}
	for i, sql := range corpus {
		f.Add(sql, int64(i))
		f.Add(sql, int64(i)+1000)
	}
	f.Fuzz(func(t *testing.T, sql string, seed int64) {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			return
		}
		q, ok := stmt.(*sqlparse.SelectStmt)
		if !ok {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		db := fuzzDB(t, rng)
		params := fuzzParams(rng, db.Schema, q)

		var want *Result
		var werr error
		func() {
			// SUM/AVG over a string column panics in the interpreter
			// (Value.AsFloat); Compile refuses the statement instead.
			defer func() {
				if r := recover(); r != nil {
					werr = fmt.Errorf("interpreter panicked: %v", r)
				}
			}()
			want, werr = interpExecQuery(db, q, params)
		}()
		got, err := ExecQuery(db, q, params)
		switch {
		case err != nil && werr != nil:
		case err != nil && strings.Contains(err.Error(), "over string column"):
			// The interpreter only notices when a row reaches the aggregate.
		case err != nil:
			t.Fatalf("%s %v: plan failed (%v), interpreter returned %v", q, params, err, want.Rows)
		case werr != nil:
			t.Fatalf("%s %v: interpreter failed (%v), plan returned %v", q, params, werr, got.Rows)
		default:
			if err := sameResult(got, want); err != nil {
				t.Fatalf("%s %v: %v", q, params, err)
			}
		}
	})
}
