package storage

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dssp/internal/schema"
	"dssp/internal/sqlparse"
)

// The probe domain: few values per kind, so rows share them, and the
// values one equality has to get right across kinds — 5 and 5.0, -0.0 and
// 0, NaN, the infinities, ±2^53 and past it, the ends of int64, and
// strings that read as numbers or hold the key's separator.
var (
	probeInts    = []int64{0, 5, -3, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	probeFloats  = []float64{0, math.Copysign(0, -1), 5, 5.5, -3, math.NaN(), math.Inf(1), math.Inf(-1), 1 << 53, 1<<53 + 2, 0x1p63, -0x1p63}
	probeStrings = []string{"", "5", "a", "a|"}
)

// drawValue draws a value of a column's type from the probe domain, NULL
// one time in eight.
func drawValue(rng *rand.Rand, typ schema.Type) sqlparse.Value {
	if rng.Intn(8) == 0 {
		return sqlparse.Null()
	}
	switch typ {
	case schema.TInt:
		return sqlparse.IntVal(probeInts[rng.Intn(len(probeInts))])
	case schema.TFloat:
		return sqlparse.FloatVal(probeFloats[rng.Intn(len(probeFloats))])
	}
	return sqlparse.StringVal(probeStrings[rng.Intn(len(probeStrings))])
}

// probeTable builds a table "t" from a seed: a primary key of a
// seed-chosen type, one column of each type, secondary indexes on every
// column, and rows inserted, deleted and modified by primary key. It
// checks on the way that the primary key refuses a row exactly when a
// scan finds one whose key compares equal.
func probeTable(t *testing.T, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	s := schema.New()
	s.MustAddTable("t", []schema.Column{
		{Name: "k", Type: schema.Type(rng.Intn(3))},
		{Name: "i", Type: schema.TInt},
		{Name: "f", Type: schema.TFloat},
		{Name: "s", Type: schema.TString},
	}, "k")
	db := NewDatabase(s)
	tab := db.Table("t")
	cols := tab.Meta.Columns
	for _, c := range cols {
		if err := tab.CreateIndex(c.Name); err != nil {
			t.Fatal(err)
		}
	}
	for n := rng.Intn(24); n > 0; n-- {
		r := make(Row, len(cols))
		for ci, c := range cols {
			r[ci] = drawValue(rng, c.Type)
		}
		if r[0].IsNull() {
			continue
		}
		dup := len(scanEqual(tab, 0, r[0])) > 0
		if err := db.Insert("t", r); (err != nil) != dup {
			t.Fatalf("seed %d: inserting key %v %v: %v, though a scan finds a row with an equal key: %v", seed, r[0].Kind, r[0], err, dup)
		}
		switch rng.Intn(4) {
		case 0:
			v := drawValue(rng, cols[0].Type)
			if _, err := db.Delete("t", scanEqual(tab, 0, v)); err != nil {
				t.Fatal(err)
			}
		case 1:
			ci := 1 + rng.Intn(len(cols)-1)
			key := []sqlparse.Value{drawValue(rng, cols[0].Type)}
			var rows []Row
			if r := tab.LookupPK(key); r != nil {
				rows = append(rows, r)
			}
			if _, err := db.Update("t", rows, []int{ci}, []sqlparse.Value{drawValue(rng, cols[ci].Type)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tab
}

// scanEqual returns the rows a scan finds whose column ci compares equal
// to v.
func scanEqual(tab *Table, ci int, v sqlparse.Value) []Row {
	var rows []Row
	tab.Scan(func(r Row) bool {
		if r[ci].Compare(v) == 0 {
			rows = append(rows, r)
		}
		return true
	})
	return rows
}

// keys lists the rows' keys, sorted: a row's key is unique in its table,
// since its primary key is.
func keys(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = Key(r)
	}
	slices.Sort(out)
	return out
}

// FuzzProbeMatchesScan: for any typed table and any probe value of any
// kind, LookupPK and LookupIndex find exactly the rows a full scan finds
// with Value.Compare(col, v) == 0. The scan shares nothing with the probe
// path but Compare, so an index keyed by an encoding that parts values
// Compare calls equal (5 and 5.0, -0.0 and 0) fails here.
func FuzzProbeMatchesScan(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), int64(5), 5.0, "5")
		f.Add(seed+100, uint8(4), int64(-3), math.Copysign(0, -1), "a|")
	}
	f.Add(int64(7), uint8(2), int64(0), math.NaN(), "")
	f.Add(int64(9), uint8(1), int64(1<<53+1), float64(1<<53), "")
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, i int64, fl float64, s string) {
		tab := probeTable(t, seed)
		var v sqlparse.Value
		switch kind % 5 {
		case 1:
			v = sqlparse.IntVal(i)
		case 2:
			v = sqlparse.FloatVal(fl)
		case 3:
			v = sqlparse.StringVal(s)
		case 4:
			// A value of the table's own, crossed to the other numeric kind.
			rng := rand.New(rand.NewSource(int64(kind) ^ seed))
			switch v = drawValue(rng, schema.Type(rng.Intn(3))); {
			case v.Kind == sqlparse.KindInt:
				v = sqlparse.FloatVal(float64(v.Int()))
			case v.Kind == sqlparse.KindFloat && v.Float() == math.Trunc(v.Float()) && math.Abs(v.Float()) < 0x1p63:
				v = sqlparse.IntVal(int64(v.Float()))
			}
		}
		for ci, c := range tab.Meta.Columns {
			want := keys(scanEqual(tab, ci, v))
			var got []Row
			tab.LookupIndex(ci, v, func(r Row) bool { got = append(got, r); return true })
			if !slices.Equal(keys(got), want) {
				t.Fatalf("seed %d: LookupIndex(%s, %v %v) = %q, a scan finds %q", seed, c.Name, v.Kind, v, keys(got), want)
			}
		}
		want := keys(scanEqual(tab, 0, v))
		var got []string
		if r := tab.LookupPK([]sqlparse.Value{v}); r != nil {
			got = []string{Key(r)}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: LookupPK(%v %v) = %q, a scan finds %q", seed, v.Kind, v, got, want)
		}
	})
}
