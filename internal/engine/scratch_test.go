package engine

import (
	"fmt"
	"strconv"
	"testing"

	"dssp/internal/sqlparse"
	"dssp/internal/storage"
)

// resultShapes is one statement per way Run builds rows: projected as they
// are found, ordered with and without a heap, grouped with and without a
// ranking, one group over everything, a self-join. Each takes one
// parameter, a lower bound on qty.
var resultShapes = []string{
	"SELECT toy_id, toy_name, qty FROM toys WHERE qty>=?",
	"SELECT toy_id, toy_name FROM toys WHERE qty>=? LIMIT 2",
	"SELECT toy_name, qty FROM toys WHERE qty>=? ORDER BY qty DESC, toy_id LIMIT 3",
	"SELECT toy_name, qty FROM toys WHERE qty>=? ORDER BY toy_name",
	"SELECT toy_name, SUM(qty) AS total, MAX(toy_id) FROM toys WHERE qty>=? GROUP BY toy_name ORDER BY total DESC LIMIT 2",
	"SELECT toy_name, COUNT(*) FROM toys WHERE qty>=? GROUP BY toy_name",
	"SELECT COUNT(*), MIN(toy_name) FROM toys WHERE qty>=?",
	"SELECT t1.toy_name, t2.qty FROM toys AS t1, toys AS t2 WHERE t1.toy_name=t2.toy_name AND t1.qty>=?",
}

func compileShape(t testing.TB, db *storage.Database, sql string) *Plan {
	t.Helper()
	p, err := Compile(db.Schema, sqlparse.MustParse(sql).(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return p
}

// A result's values lie in an array no longer than they are: a LIMIT k
// aggregate used to hand out k rows sliced from the table of every group's
// output, and so kept all of it alive for as long as a cache entry or a
// client kept the k.
func TestResultRowsAreOneExactSlab(t *testing.T) {
	for _, sql := range resultShapes {
		db := toyDB(t)
		res, err := compileShape(t, db, sql).Run(db, []sqlparse.Value{sqlparse.IntVal(0)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() == 0 {
			t.Fatalf("%q: empty result proves nothing", sql)
		}
		if len(res.Vals) != res.Len()*len(res.Columns) || cap(res.Vals) != len(res.Vals) {
			t.Errorf("%q: %d rows of %d columns in len %d cap %d", sql, res.Len(), len(res.Columns), len(res.Vals), cap(res.Vals))
		}
	}
}

// checkRowCap fails t unless appending to each row of r but the last
// leaves every other row as it was: Row caps each row to its own length.
// r is left as it was.
func checkRowCap(t *testing.T, r *Result) {
	t.Helper()
	if r.Len() < 2 {
		t.Fatalf("a result of %d rows proves nothing", r.Len())
	}
	want := r.Fingerprint(true)
	for i := range r.Len() - 1 {
		row := r.Row(i)
		if len(row) != len(r.Columns) || cap(row) != len(row) {
			t.Fatalf("row %d has len %d cap %d, want both %d", i, len(row), cap(row), len(r.Columns))
		}
		_ = append(row, sqlparse.StringVal("appended"))
		if got := r.Fingerprint(true); got != want {
			t.Fatalf("appending to row %d rewrote the result:\n%s\nwant\n%s", i, got, want)
		}
	}
}

// Appending to a row never writes into the next, whether the result came
// from Run, from RunInto over a result whose array was larger than the
// answer, or from CloneInto. (wire's TestDecodedRowsAreCapped covers a
// decoded result.)
func TestRowIsCapped(t *testing.T) {
	for _, sql := range resultShapes {
		db := toyDB(t)
		p := compileShape(t, db, sql)
		res, err := p.Run(db, []sqlparse.Value{sqlparse.IntVal(0)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() < 2 {
			continue
		}
		t.Run(sql, func(t *testing.T) {
			checkRowCap(t, res)
			into := &Result{Vals: make([]sqlparse.Value, 0, len(res.Vals)+8)}
			if err := p.RunInto(db, []sqlparse.Value{sqlparse.IntVal(0)}, into); err != nil {
				t.Fatal(err)
			}
			checkRowCap(t, into)
			var cp Result
			res.CloneInto(&cp, nil, make([]sqlparse.Value, len(res.Vals)))
			checkRowCap(t, &cp)
		})
	}
}

// Two runs of one plan share scratch and nothing else: what the first
// returned is untouched by the second, and neither moves when the database
// does.
func TestPlanScratchIsNotReachable(t *testing.T) {
	for _, sql := range resultShapes {
		db := toyDB(t)
		p := compileShape(t, db, sql)
		a, err := p.Run(db, []sqlparse.Value{sqlparse.IntVal(0)})
		if err != nil {
			t.Fatal(err)
		}
		keptA := a.Clone()
		b, err := p.Run(db, []sqlparse.Value{sqlparse.IntVal(8)})
		if err != nil {
			t.Fatal(err)
		}
		keptB := b.Clone()
		if sameResult(a, b) == nil {
			t.Fatalf("%q: both parameters give the same result, which proves nothing", sql)
		}
		if err := sameResult(a, keptA); err != nil {
			t.Errorf("%q: a second run changed the first run's result: %v", sql, err)
		}
		for id := int64(1); id <= 5; id++ {
			update(t, db, "UPDATE toys SET toy_name=?, qty=? WHERE toy_id=?",
				sqlparse.StringVal("overwritten"), sqlparse.IntVal(100+id), sqlparse.IntVal(id))
		}
		update(t, db, "DELETE FROM toys WHERE toy_id=?", sqlparse.IntVal(2))
		if _, err := p.Run(db, []sqlparse.Value{sqlparse.IntVal(-100)}); err != nil {
			t.Fatal(err)
		}
		if err := sameResult(a, keptA); err != nil {
			t.Errorf("%q: first result changed after the database did: %v", sql, err)
		}
		if err := sameResult(b, keptB); err != nil {
			t.Errorf("%q: second result changed after the database did: %v", sql, err)
		}
	}
}

// held reports the first thing a pooled exec still refers to, looking
// through every buffer to its capacity.
func (x *exec) held() error {
	if x.plan != nil || x.params != nil || x.tabs != nil || x.tup != nil || x.ord.order != nil || x.scanned != 0 || x.nrows != 0 {
		return fmt.Errorf("plan %p, params %v, %d levels, order %v, scanned %d, nrows %d",
			x.plan, x.params, len(x.tabs), x.ord.order, x.scanned, x.nrows)
	}
	for i := range x.tabArr {
		if x.tabArr[i] != nil || x.tupArr[i] != nil {
			return fmt.Errorf("level %d still bound", i)
		}
	}
	a := &x.agg
	if len(x.vals)+len(x.ord.tuples)+len(x.ord.slots)+len(a.ends)+len(a.arena)+len(a.accs)+len(a.out)+len(a.outRows) != 0 || x.ord.heaped {
		return fmt.Errorf("a buffer was not emptied")
	}
	for _, v := range x.vals[:cap(x.vals)] {
		if v != (sqlparse.Value{}) {
			return fmt.Errorf("vals holds %v", v)
		}
	}
	for _, row := range x.ord.tuples[:cap(x.ord.tuples)] {
		if row != nil {
			return fmt.Errorf("ordered sink holds storage row %v", row)
		}
	}
	for _, s := range a.slots {
		if s != 0 {
			return fmt.Errorf("group index holds group %d", s-1)
		}
	}
	for _, acc := range a.accs[:cap(a.accs)] {
		if acc != (aggAcc{}) {
			return fmt.Errorf("accumulator holds %+v", acc)
		}
	}
	for _, v := range a.out[:cap(a.out)] {
		if v != (sqlparse.Value{}) {
			return fmt.Errorf("group output holds %v", v)
		}
	}
	for _, row := range a.outRows[:cap(a.outRows)] {
		if row != nil {
			return fmt.Errorf("group output rows hold %v", row)
		}
	}
	return nil
}

// Scratch goes back to the pool holding nothing — after a run that
// returned a result and after one that returned an error (Run defers the
// release, so both leave through it).
func TestPlanScratchGoesBackClean(t *testing.T) {
	for _, sql := range resultShapes {
		db := toyDB(t)
		p := compileShape(t, db, sql)
		for _, c := range []struct {
			name string
			db   *storage.Database
		}{{"ok", db}, {"error", &storage.Database{Schema: db.Schema}}} {
			x := execPool.Get().(*exec)
			err := x.run(p, c.db, []sqlparse.Value{sqlparse.IntVal(0)}, new(Result))
			if (err != nil) != (c.name == "error") {
				t.Fatalf("%q (%s): err = %v", sql, c.name, err)
			}
			x.release()
			if err := x.held(); err != nil {
				t.Errorf("%q (%s): released scratch: %v", sql, c.name, err)
			}
		}
	}
}

// Clone returns a deep copy of the result in a result of its own: what
// the wire codec's CloneInto gives a client.
func (r *Result) Clone() *Result {
	cp := new(Result)
	r.CloneInto(cp, nil, make([]sqlparse.Value, len(r.Vals)))
	return cp
}

var cloneSink *Result

// BenchmarkResultClone is what a view-exposure cache hit pays to give the
// client a result of its own.
func BenchmarkResultClone(b *testing.B) {
	r := &Result{Columns: []string{"i_id", "i_title", "i_cost"}, RowsScanned: 40}
	for i := 0; i < 10; i++ {
		r.Vals = append(r.Vals, sqlparse.IntVal(int64(i)), sqlparse.StringVal("title "+strconv.Itoa(i)), sqlparse.FloatVal(9.99))
	}
	b.Run("rows=10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cloneSink = r.Clone()
		}
	})
}
