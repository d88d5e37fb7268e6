package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dssp/internal/schema"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
)

// compositeDB builds a table with a composite primary key.
func compositeDB(t *testing.T) *storage.Database {
	t.Helper()
	s := schema.New()
	s.MustAddTable("lines", []schema.Column{
		{Name: "order_id", Type: schema.TInt},
		{Name: "line_no", Type: schema.TInt},
		{Name: "item", Type: schema.TString},
		{Name: "qty", Type: schema.TInt},
	}, "order_id", "line_no")
	db := storage.NewDatabase(s)
	for o := int64(1); o <= 3; o++ {
		for l := int64(1); l <= 4; l++ {
			mustInsert(t, db, "lines", storage.Row{
				sqlparse.IntVal(o), sqlparse.IntVal(l),
				sqlparse.StringVal(fmt.Sprintf("item%d", l)), sqlparse.IntVal(o * l),
			})
		}
	}
	return db
}

func TestCompositePrimaryKey(t *testing.T) {
	db := compositeDB(t)
	// Duplicate composite key rejected.
	err := db.Insert("lines", storage.Row{sqlparse.IntVal(1), sqlparse.IntVal(1), sqlparse.StringVal("x"), sqlparse.IntVal(1)})
	if err == nil {
		t.Error("duplicate composite key accepted")
	}
	// Same first column, different second: fine.
	if err := db.Insert("lines", storage.Row{sqlparse.IntVal(1), sqlparse.IntVal(9), sqlparse.StringVal("x"), sqlparse.IntVal(1)}); err != nil {
		t.Errorf("distinct composite key rejected: %v", err)
	}
}

func TestCompositeKeyModification(t *testing.T) {
	db := compositeDB(t)
	n := update(t, db, "UPDATE lines SET qty=? WHERE order_id=? AND line_no=?",
		sqlparse.IntVal(99), sqlparse.IntVal(2), sqlparse.IntVal(3))
	if n != 1 {
		t.Fatalf("n = %d", n)
	}
	res := query(t, db, "SELECT qty FROM lines WHERE order_id=? AND line_no=?", sqlparse.IntVal(2), sqlparse.IntVal(3))
	if res.Row(0)[0].Int() != 99 {
		t.Errorf("qty = %v", res.Row(0)[0])
	}
}

func TestCompositeKeyPartialPredicate(t *testing.T) {
	db := compositeDB(t)
	res := query(t, db, "SELECT line_no FROM lines WHERE order_id=?", sqlparse.IntVal(2))
	if res.Len() != 4 {
		t.Errorf("rows = %d", res.Len())
	}
}

func TestThreeWayJoin(t *testing.T) {
	s := schema.New()
	s.MustAddTable("a", []schema.Column{{Name: "ai", Type: schema.TInt}, {Name: "av", Type: schema.TString}}, "ai")
	s.MustAddTable("b", []schema.Column{{Name: "bi", Type: schema.TInt}, {Name: "ba", Type: schema.TInt}}, "bi")
	s.MustAddTable("c", []schema.Column{{Name: "ci", Type: schema.TInt}, {Name: "cb", Type: schema.TInt}}, "ci")
	db := storage.NewDatabase(s)
	for i := int64(1); i <= 3; i++ {
		mustInsert(t, db, "a", storage.Row{sqlparse.IntVal(i), sqlparse.StringVal(fmt.Sprintf("v%d", i))})
		mustInsert(t, db, "b", storage.Row{sqlparse.IntVal(i + 10), sqlparse.IntVal(i)})
		mustInsert(t, db, "c", storage.Row{sqlparse.IntVal(i + 20), sqlparse.IntVal(i + 10)})
	}
	res := query(t, db, "SELECT av, ci FROM a, b, c WHERE ba=ai AND cb=bi AND ai=?", sqlparse.IntVal(2))
	if res.Len() != 1 || res.Row(0)[0].Str != "v2" || res.Row(0)[1].Int() != 22 {
		t.Fatalf("res = %+v", res.Vals)
	}
}

func TestFloatColumns(t *testing.T) {
	s := schema.New()
	s.MustAddTable("m", []schema.Column{{Name: "id", Type: schema.TInt}, {Name: "x", Type: schema.TFloat}}, "id")
	db := storage.NewDatabase(s)
	for i := int64(1); i <= 5; i++ {
		mustInsert(t, db, "m", storage.Row{sqlparse.IntVal(i), sqlparse.FloatVal(float64(i) / 2)})
	}
	res := query(t, db, "SELECT id FROM m WHERE x>?", sqlparse.FloatVal(1.2))
	if res.Len() != 3 { // 1.5, 2.0, 2.5
		t.Errorf("rows = %d", res.Len())
	}
	res = query(t, db, "SELECT AVG(x) FROM m")
	if res.Row(0)[0].Float() != 1.5 {
		t.Errorf("avg = %v", res.Row(0)[0])
	}
	// Mixed int/float comparison.
	res = query(t, db, "SELECT id FROM m WHERE x=?", sqlparse.IntVal(2))
	if res.Len() != 1 || res.Row(0)[0].Int() != 4 {
		t.Errorf("int-float equality: %v", res.Vals)
	}
}

// TestFloatZerosGroupTogether: -0.0 and 0.0 compare equal, so they are
// one GROUP BY group, as they are one ORDER BY key.
func TestFloatZerosGroupTogether(t *testing.T) {
	s := schema.New()
	s.MustAddTable("m", []schema.Column{{Name: "id", Type: schema.TInt}, {Name: "x", Type: schema.TFloat}}, "id")
	db := storage.NewDatabase(s)
	for i, x := range []float64{0, math.Copysign(0, -1), 1} {
		mustInsert(t, db, "m", storage.Row{sqlparse.IntVal(int64(i)), sqlparse.FloatVal(x)})
	}
	res := query(t, db, "SELECT x, COUNT(*) FROM m GROUP BY x ORDER BY x")
	if res.Len() != 2 || res.Row(0)[1].Int() != 2 || res.Row(1)[1].Int() != 1 {
		t.Errorf("GROUP BY over 0.0, -0.0, 1.0 = %v, want two groups of 2 and 1", res.Vals)
	}
}

func TestOrderByMultiKeyMixedDirections(t *testing.T) {
	db := toyDB(t)
	res := query(t, db, "SELECT toy_name, qty FROM toys ORDER BY toy_name, qty DESC")
	// bear(10), bear(7), doll(3), kite(25), truck(3)
	want := [][2]interface{}{{"bear", int64(10)}, {"bear", int64(7)}, {"doll", int64(3)}, {"kite", int64(25)}, {"truck", int64(3)}}
	for i, w := range want {
		if res.Row(i)[0].Str != w[0].(string) || res.Row(i)[1].Int() != w[1].(int64) {
			t.Fatalf("row %d = %v", i, res.Row(i))
		}
	}
}

func TestLimitZero(t *testing.T) {
	db := toyDB(t)
	res := query(t, db, "SELECT toy_id FROM toys LIMIT 0")
	if res.Len() != 0 {
		t.Errorf("rows = %d", res.Len())
	}
}

func TestLimitBeyondRows(t *testing.T) {
	db := toyDB(t)
	res := query(t, db, "SELECT toy_id FROM toys ORDER BY toy_id LIMIT 100")
	if res.Len() != 5 {
		t.Errorf("rows = %d", res.Len())
	}
}

func TestGroupByMultipleAggregates(t *testing.T) {
	db := toyDB(t)
	res := query(t, db, "SELECT toy_name, MIN(qty), MAX(qty), COUNT(qty), AVG(qty) FROM toys GROUP BY toy_name ORDER BY toy_name")
	var bear []sqlparse.Value
	for i := range res.Len() {
		r := res.Row(i)
		if r[0].Str == "bear" {
			bear = r
		}
	}
	if bear == nil || bear[1].Int() != 7 || bear[2].Int() != 10 || bear[3].Int() != 2 || bear[4].Float() != 8.5 {
		t.Errorf("bear = %v", bear)
	}
}

func TestCountStarVersusCountColumn(t *testing.T) {
	db := toyDB(t)
	mustInsert(t, db, "toys", storage.Row{sqlparse.IntVal(50), sqlparse.Null(), sqlparse.IntVal(1)})
	star := query(t, db, "SELECT COUNT(*) FROM toys")
	col := query(t, db, "SELECT COUNT(toy_name) FROM toys")
	if star.Row(0)[0].Int() != col.Row(0)[0].Int()+1 {
		t.Errorf("COUNT(*)=%v COUNT(col)=%v", star.Row(0)[0], col.Row(0)[0])
	}
}

func TestSelfJoinAliasesIndependent(t *testing.T) {
	db := toyDB(t)
	// Pairs of distinct toys with the same name.
	res := query(t, db, "SELECT t1.toy_id, t2.toy_id FROM toys AS t1, toys AS t2 WHERE t1.toy_name=t2.toy_name AND t1.toy_id<t2.toy_id")
	if res.Len() != 1 { // bear ids (1,3)
		t.Fatalf("rows = %+v", res.Vals)
	}
	if res.Row(0)[0].Int() != 1 || res.Row(0)[1].Int() != 3 {
		t.Errorf("pair = %v", res.Row(0))
	}
}

// TestRandomizedEngineConsistency: random small databases; for each query,
// index-assisted execution must equal brute-force nested-loop semantics
// (checked by re-running after dropping to unindexed paths via a fresh
// unindexed database with identical rows).
func TestRandomizedEngineConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	mk := func(withIndex bool) *storage.Database {
		s := schema.New()
		s.MustAddTable("r", []schema.Column{
			{Name: "id", Type: schema.TInt}, {Name: "k", Type: schema.TInt}, {Name: "v", Type: schema.TString},
		}, "id")
		db := storage.NewDatabase(s)
		if withIndex {
			if err := db.Table("r").CreateIndex("k"); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	queries := []string{
		"SELECT id FROM r WHERE k=?",
		"SELECT id, v FROM r WHERE k>=? ORDER BY id",
		"SELECT COUNT(*) FROM r WHERE k=?",
		"SELECT k, COUNT(*) FROM r GROUP BY k ORDER BY k",
		"SELECT id FROM r WHERE k=? AND v=?",
	}
	for trial := 0; trial < 50; trial++ {
		indexed, plain := mk(true), mk(false)
		n := 5 + rng.Intn(30)
		for i := 0; i < n; i++ {
			row := storage.Row{
				sqlparse.IntVal(int64(i)),
				sqlparse.IntVal(int64(rng.Intn(5))),
				sqlparse.StringVal(fmt.Sprintf("s%d", rng.Intn(3))),
			}
			mustInsert(t, indexed, "r", row)
			mustInsert(t, plain, "r", row)
		}
		for _, src := range queries {
			q := sqlparse.MustParse(src).(*sqlparse.SelectStmt)
			params := []sqlparse.Value{sqlparse.IntVal(int64(rng.Intn(5))), sqlparse.StringVal(fmt.Sprintf("s%d", rng.Intn(3)))}
			params = params[:sqlparse.NumParams(q)]
			a, err := ExecQuery(indexed, q, params)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ExecQuery(plain, q, params)
			if err != nil {
				t.Fatal(err)
			}
			ordered := len(q.OrderBy) > 0
			if a.Fingerprint(ordered) != b.Fingerprint(ordered) {
				t.Fatalf("trial %d: indexed and plain plans disagree for %q", trial, src)
			}
		}
	}
}

func TestProjectionDuplicateColumns(t *testing.T) {
	db := toyDB(t)
	res := query(t, db, "SELECT qty, qty FROM toys WHERE toy_id=?", sqlparse.IntVal(5))
	if len(res.Columns) != 2 || res.Row(0)[0].Int() != 25 || res.Row(0)[1].Int() != 25 {
		t.Errorf("res = %+v", res)
	}
}

func TestAliasProjection(t *testing.T) {
	db := toyDB(t)
	res := query(t, db, "SELECT qty AS amount FROM toys WHERE toy_id=?", sqlparse.IntVal(5))
	if res.Columns[0] != "amount" {
		t.Errorf("columns = %v", res.Columns)
	}
	if res.ColumnIndex("amount") != 0 || res.ColumnIndex("qty") != -1 {
		t.Error("ColumnIndex on alias broken")
	}
}
