package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/schema"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
)

// draws reads a fuzz input as a stream of choices; once it is exhausted
// every choice is the first.
type draws []byte

func (d *draws) n(k int) int {
	if len(*d) == 0 {
		return 0
	}
	v := int((*d)[0]) % k
	*d = (*d)[1:]
	return v
}

// value draws from a narrow domain, so that predicates match and rows
// collide: NULL, small ints, both zeros, NaN and halves as floats (an
// integral float compares equal to its int), short strings.
func (d *draws) value() sqlparse.Value {
	switch d.n(4) {
	case 0:
		if d.n(2) == 0 {
			return sqlparse.Null()
		}
		return sqlparse.StringVal(fmt.Sprintf("s%d", d.n(3)))
	case 1:
		return sqlparse.FloatVal([]float64{0, math.Copysign(0, -1), math.NaN(), 1, 1.5, 2}[d.n(6)])
	default:
		return sqlparse.IntVal(int64(d.n(4)))
	}
}

// valueOf draws a value of a column's type, or NULL.
func (d *draws) valueOf(typ schema.Type) sqlparse.Value {
	for {
		v := d.value()
		if v.IsNull() || v.Kind == typ.Kind() {
			return v
		}
		if len(*d) == 0 {
			return sqlparse.Null()
		}
	}
}

// operand draws a parameter or a constant.
func (d *draws) operand(nparams *int) sqlparse.Operand {
	if d.n(3) == 0 {
		return sqlparse.Operand{Kind: sqlparse.OpConst, Const: d.value()}
	}
	*nparams++
	return sqlparse.Operand{Kind: sqlparse.OpParam, Param: *nparams - 1}
}

// updateFixture draws a table of two to four typed columns — a primary
// key of one or two int columns, secondary indexes on some of the others
// — fills it, then deletes and modifies some rows through storage so that
// scans cross tombstones and posting lists are out of insertion order.
func updateFixture(t *testing.T, d *draws) *storage.Database {
	ncols := 2 + d.n(3)
	cols := make([]schema.Column, ncols)
	for i := range cols {
		cols[i] = schema.Column{Name: fmt.Sprintf("c%d", i), Type: schema.TInt}
		if i > 0 {
			cols[i].Type = []schema.Type{schema.TInt, schema.TFloat, schema.TString}[d.n(3)]
		}
	}
	pk := []string{"c0"}
	if ncols > 2 && cols[1].Type == schema.TInt && d.n(3) == 0 {
		pk = append(pk, "c1")
	}
	s := schema.New()
	s.MustAddTable("t", cols, pk...)
	db := storage.NewDatabase(s)
	tab := db.Table("t")
	for _, c := range cols[len(pk):] {
		if d.n(2) == 0 {
			if err := tab.CreateIndex(c.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	for n := d.n(12); n > 0; n-- {
		r := make(storage.Row, ncols)
		for i, c := range cols {
			r[i] = d.valueOf(c.Type)
		}
		for i := range pk {
			r[i] = sqlparse.IntVal(int64(d.n(6)))
		}
		_ = db.Insert("t", r) // a duplicate key leaves one row fewer
	}
	var rows []storage.Row
	tab.Scan(func(r storage.Row) bool { rows = append(rows, r); return true })
	for _, r := range rows {
		switch d.n(4) {
		case 0:
			if _, err := db.Delete("t", []storage.Row{r}); err != nil {
				t.Fatal(err)
			}
		case 1:
			ci := len(pk) + d.n(ncols-len(pk))
			if _, err := db.Update("t", []storage.Row{r}, []int{ci}, []sqlparse.Value{d.valueOf(cols[ci].Type)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// updateStmt draws a DELETE or an UPDATE over the fixture's table with its
// parameters; the validator may refuse what it draws. A DELETE's
// WHERE is any conjunction of comparisons of a column with a value or
// another column; an UPDATE's names every key column by equality, as the
// validator requires, plus extra equalities on any column, and SET assigns
// one or two non-key columns a value that may not fit the column's type.
func updateStmt(d *draws, tab *schema.Table) (sqlparse.Statement, []sqlparse.Value) {
	col := func(ci int) sqlparse.Operand {
		return sqlparse.Operand{Kind: sqlparse.OpColumn, Col: sqlparse.ColumnRef{Column: tab.Columns[ci].Name}}
	}
	pred := func(l, r sqlparse.Operand, op sqlparse.CompareOp) sqlparse.Predicate {
		if d.n(2) == 0 {
			return sqlparse.Predicate{Left: r, Op: op.Flip(), Right: l}
		}
		return sqlparse.Predicate{Left: l, Op: op, Right: r}
	}
	var stmt sqlparse.Statement
	nparams := 0
	if d.n(2) == 0 {
		del := &sqlparse.DeleteStmt{Table: tab.Name}
		for n := d.n(5); n > 0; n-- {
			l, op := col(d.n(len(tab.Columns))), sqlparse.CompareOp(d.n(5))
			r := col(d.n(len(tab.Columns)))
			if d.n(3) != 0 {
				r = d.operand(&nparams)
			}
			del.Where = append(del.Where, pred(l, r, op))
		}
		stmt = del
	} else {
		upd := &sqlparse.UpdateStmt{Table: tab.Name}
		nonKey := len(tab.PrimaryKey)
		for _, ci := range []int{nonKey + d.n(len(tab.Columns)-nonKey), nonKey + d.n(len(tab.Columns)-nonKey)} {
			if !slices.ContainsFunc(upd.Set, func(a sqlparse.Assignment) bool { return a.Column == tab.Columns[ci].Name }) {
				upd.Set = append(upd.Set, sqlparse.Assignment{Column: tab.Columns[ci].Name, Value: d.operand(&nparams)})
			}
		}
		for _, ci := range tab.PKIndexes() {
			upd.Where = append(upd.Where, pred(col(ci), d.operand(&nparams), sqlparse.OpEq))
		}
		for n := d.n(4); n > 0; n-- {
			upd.Where = append(upd.Where, pred(col(d.n(len(tab.Columns))), d.operand(&nparams), sqlparse.OpEq))
		}
		// The key equalities need not come first.
		w := upd.Where
		for i := len(w) - 1; i > 0; i-- {
			j := d.n(i + 1)
			w[i], w[j] = w[j], w[i]
		}
		stmt = upd
	}
	params := make([]sqlparse.Value, nparams)
	for i := range params {
		params[i] = d.value()
	}
	return stmt, params
}

// refHolds is the reference's predicate: SQL's comparison through
// Value.Compare, with a NULL on either side never matching.
func refHolds(tab *schema.Table, p sqlparse.Predicate, params []sqlparse.Value, row storage.Row) bool {
	side := func(o sqlparse.Operand) sqlparse.Value {
		switch o.Kind {
		case sqlparse.OpColumn:
			return row[tab.ColumnIndex(o.Col.Column)]
		case sqlparse.OpParam:
			return params[o.Param]
		}
		return o.Const
	}
	l, r := side(p.Left), side(p.Right)
	if l.IsNull() || r.IsNull() {
		return false
	}
	c := l.Compare(r)
	switch p.Op {
	case sqlparse.OpEq:
		return c == 0
	case sqlparse.OpLt:
		return c < 0
	case sqlparse.OpLe:
		return c <= 0
	case sqlparse.OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// refApply is the reference executor: it scans the table's rows, keeps
// those every predicate holds for, and deletes or modifies them. It
// returns the rows after the statement, in scan order, the number
// affected, and whether the statement fails (a SET value of the wrong
// type, when some row matches).
func refApply(tab *schema.Table, rows []storage.Row, stmt sqlparse.Statement, params []sqlparse.Value) ([]storage.Row, int, bool) {
	var where []sqlparse.Predicate
	var set []sqlparse.Assignment
	switch s := stmt.(type) {
	case *sqlparse.DeleteStmt:
		where = s.Where
	case *sqlparse.UpdateStmt:
		where, set = s.Where, s.Set
	}
	matches := func(r storage.Row) bool {
		for _, p := range where {
			if !refHolds(tab, p, params, r) {
				return false
			}
		}
		return true
	}
	var out []storage.Row
	n := 0
	for _, r := range rows {
		if matches(r) {
			n++
			if set == nil {
				continue
			}
			r = r.Clone()
			for _, a := range set {
				v := a.Value.Const
				if a.Value.Kind == sqlparse.OpParam {
					v = params[a.Value.Param]
				}
				ci := tab.ColumnIndex(a.Column)
				if !v.IsNull() && v.Kind != tab.Columns[ci].Type.Kind() {
					return rows, 0, true
				}
				r[ci] = v
			}
		}
		out = append(out, r)
	}
	return out, n, false
}

// dump is a table's rows in scan order, one line each.
func dump(rows []storage.Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintln(&b, r)
	}
	return b.String()
}

// FuzzUpdateMatchesScan holds Run of every DELETE and UPDATE the validator
// accepts to a reference that shares no code with the plan: a scan that
// applies SQL semantics through Value.Compare. The table after the
// statement, read by a scan, must be the reference's, with the same
// number of rows affected and the same failure; and every primary-key
// and secondary-index probe must find exactly the rows a scan finds.
func FuzzUpdateMatchesScan(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		seed := make([]byte, 24+rng.Intn(48))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := draws(data)
		db := updateFixture(t, &d)
		tab := db.Table("t")
		stmt, params := updateStmt(&d, tab.Meta)
		if schema.Validate(db.Schema, stmt) != nil {
			return
		}
		var before []storage.Row
		tab.Scan(func(r storage.Row) bool { before = append(before, r.Clone()); return true })
		want, wantN, wantErr := refApply(tab.Meta, before, stmt, params)

		n, err := ExecUpdate(db, stmt, params)
		var after []storage.Row
		tab.Scan(func(r storage.Row) bool { after = append(after, r); return true })
		switch {
		case (err != nil) != wantErr:
			t.Fatalf("%s %v: Run failed: %v; the reference fails: %v", stmt, params, err, wantErr)
		case err == nil && n != wantN:
			t.Fatalf("%s %v: Run affected %d rows, the reference %d", stmt, params, n, wantN)
		case dump(after) != dump(want):
			t.Fatalf("%s %v over\n%s: Run left\n%s, the reference\n%s", stmt, params, dump(before), dump(after), dump(want))
		}
		pk := tab.Meta.PKIndexes()
		for _, r := range after {
			key := make([]sqlparse.Value, len(pk))
			for i, ci := range pk {
				key[i] = r[ci]
			}
			if got := tab.LookupPK(key); got == nil || dump([]storage.Row{got}) != dump([]storage.Row{r}) {
				t.Fatalf("%s %v: LookupPK(%v) = %v, the scan holds %v", stmt, params, key, got, r)
			}
		}
		for ci := range tab.Meta.Columns {
			if !tab.HasIndex(ci) {
				continue
			}
			for _, r := range after {
				var probed, scanned []string
				tab.LookupIndex(ci, r[ci], func(p storage.Row) bool { probed = append(probed, fmt.Sprint(p)); return true })
				for _, s := range after {
					if s[ci].Compare(r[ci]) == 0 {
						scanned = append(scanned, fmt.Sprint(s))
					}
				}
				slices.Sort(probed)
				slices.Sort(scanned)
				if !slices.Equal(probed, scanned) {
					t.Fatalf("%s %v: index on %s yields %v for %v, a scan %v", stmt, params, tab.Meta.Columns[ci].Name, probed, r[ci], scanned)
				}
			}
		}
	})
}

// BenchmarkEngineUpdate times what the home server pays per update: Run
// of a bookstore update template compiled once, over the populated
// database. insert is U1, a new customer each iteration; delete is U11,
// the three lines of a cart made for the iteration before the timer;
// modify is U9, an item's stock. Each iteration's rows are its own, so
// the count is one statement's, the same every iteration; the tables grow
// with b.N, so run it at a fixed count (-benchtime 200x).
func BenchmarkEngineUpdate(b *testing.B) {
	bench := apps.NewBookstore()
	app := bench.App()
	db := storage.NewDatabase(app.Schema)
	if err := bench.Populate(db, rand.New(rand.NewSource(1))); err != nil {
		b.Fatal(err)
	}
	iv, sv := sqlparse.IntVal, sqlparse.StringVal
	run := func(b *testing.B, id string, params []sqlparse.Value, next func(i int)) {
		u, err := CompileUpdate(db.Schema, app.Update(id).Stmt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next(i)
			if n, err := u.Run(db, params); err != nil || n == 0 {
				b.Fatalf("%s%v: %d rows, %v", id, params, n, err)
			}
		}
	}
	customers := int64(db.Table("customer").Len())
	b.Run("insert", func(b *testing.B) {
		params := []sqlparse.Value{iv(0), sv("bench"), sv("secret"), sv("FN"), sv("LN"), iv(1), sv("bench@example.com"), iv(0)}
		run(b, "U1", params, func(int) { customers++; params[0] = iv(customers) })
	})
	carts := int64(0)
	b.Run("delete", func(b *testing.B) {
		first := carts + 1
		for ; carts < first+int64(b.N); carts++ {
			if err := db.Insert("shopping_cart", storage.Row{iv(carts + 1), iv(0), iv(0)}); err != nil {
				b.Fatal(err)
			}
			for l := int64(0); l < 3; l++ {
				if err := db.Insert("shopping_cart_line", storage.Row{iv(3*carts + l), iv(carts + 1), iv(1 + l), iv(1)}); err != nil {
					b.Fatal(err)
				}
			}
		}
		params := []sqlparse.Value{iv(0)}
		run(b, "U11", params, func(i int) { params[0] = iv(first + int64(i)) })
	})
	b.Run("modify", func(b *testing.B) {
		items := db.Table("item").Len()
		params := []sqlparse.Value{iv(0), iv(0)}
		run(b, "U9", params, func(i int) { params[0], params[1] = iv(int64(i%100)), iv(int64(1+i%items)) })
	})
}
