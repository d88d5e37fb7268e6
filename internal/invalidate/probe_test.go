package invalidate

import (
	"math"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/sqlparse"
)

// keyCorpus is what the probe key must agree with Compare on: values that
// Compare calls equal across kinds (5 and 5.0, -0.0 and 0.0), the ends of
// the exact range and one past them as int and float, the values beyond
// it that Compare cannot order transitively (IntVal(2^53+1) equals
// FloatVal(2^53)), NaN, the infinities, NULL, and strings that look like
// numbers.
var keyCorpus = []sqlparse.Value{
	sqlparse.IntVal(5), sqlparse.FloatVal(5), sqlparse.FloatVal(5.5), sqlparse.StringVal("5"),
	sqlparse.FloatVal(math.Copysign(0, -1)), sqlparse.FloatVal(0), sqlparse.IntVal(0),
	sqlparse.IntVal(-3), sqlparse.FloatVal(-3), sqlparse.FloatVal(-0.5), sqlparse.FloatVal(1e-300),
	sqlparse.IntVal(1 << 53), sqlparse.IntVal(-1 << 53), sqlparse.FloatVal(1 << 53), sqlparse.FloatVal(-1 << 53),
	sqlparse.IntVal(1<<53 + 1), sqlparse.IntVal(-1<<53 - 1), sqlparse.FloatVal(1<<53 + 2), sqlparse.FloatVal(-1<<53 - 2),
	sqlparse.IntVal(1<<53 - 1), sqlparse.FloatVal(1<<53 - 1),
	sqlparse.IntVal(math.MinInt64), sqlparse.IntVal(math.MaxInt64),
	sqlparse.FloatVal(math.NaN()), sqlparse.FloatVal(math.Inf(1)), sqlparse.FloatVal(math.Inf(-1)),
	sqlparse.Null(), sqlparse.StringVal(""), sqlparse.StringVal("bear"),
}

// unkeyable reports whether a value is one the key must refuse: a NaN, or
// a number beyond ±2^53.
func unkeyable(v sqlparse.Value) bool {
	switch v.Kind {
	case sqlparse.KindInt:
		return v.Int() > 1<<53 || v.Int() < -1<<53
	case sqlparse.KindFloat:
		f := v.Float()
		return math.IsNaN(f) || f > 1<<53 || f < -1<<53
	}
	return false
}

// TestProbeKeyFollowsCompare pins the key the bucket index is built on:
// two keyable values have equal keys exactly when Compare calls them
// equal, and the values without a key are exactly NaN and the numbers
// beyond ±2^53, where Compare is not transitive.
func TestProbeKeyFollowsCompare(t *testing.T) {
	for _, a := range keyCorpus {
		ka, ok := KeyOf(a)
		if ok == unkeyable(a) {
			t.Errorf("KeyOf(%v %v): keyable %v", a.Kind, a, ok)
		}
		if !ok {
			continue
		}
		for _, b := range keyCorpus {
			kb, ok := KeyOf(b)
			if !ok {
				continue
			}
			if same, equal := ka == kb, a.Compare(b) == 0; same != equal {
				t.Errorf("%v %v and %v %v: keys equal %v, Compare equal %v", a.Kind, a, b.Kind, b, same, equal)
			}
		}
	}
}

// TestHotPairsProbe pins the slot rule to the pairs that carry the
// bookstore's invalidation work: on every one, both sides compare one
// column by equality, and the plan probes the index instead of scanning.
func TestHotPairsProbe(t *testing.T) {
	app := apps.NewBookstore().App()
	iv := newInvalidator(app)
	for _, pair := range [][2]string{
		{"U10", "Q12"}, {"U9", "Q5"}, {"U9", "Q27"}, {"U9", "Q13"}, {"U4", "Q18"}, {"U13", "Q5"}, {"U13", "Q13"},
	} {
		u, q := app.Update(pair[0]), app.Query(pair[1])
		if p := iv.Plan(u, q); p.tmpl == DNI || p.probe == probeScan {
			t.Errorf("%s/%s (%s | %s): the plan scans (template decision %v)", u.ID, q.ID, u.SQL, q.SQL, p.tmpl)
		}
	}
}
