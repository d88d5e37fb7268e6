package sqlparse

import (
	"math"
	"testing"
	"unsafe"
)

// TestValueSize pins the value's layout: its kind, one 8-byte payload and
// Str. Every row and parameter list is a slice of values, so a wider
// value costs every column the engine, the wire decoder and the cache
// hold.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Fatalf("sqlparse.Value is %d bytes, want 32", n)
	}
}

// TestValueAccessors checks that the payload reads back what the
// constructors were given, bit for bit, and that a kind's accessor of
// another kind reads 0, as the fields it replaced did.
func TestValueAccessors(t *testing.T) {
	for _, i := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64} {
		if v := IntVal(i); v.Int() != i || v.Float() != 0 || v.Kind != KindInt {
			t.Errorf("IntVal(%d) reads %d, %v", i, v.Int(), v.Float())
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 2.5, math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8000000000001)} {
		if v := FloatVal(f); math.Float64bits(v.Float()) != math.Float64bits(f) || v.Int() != 0 || v.Kind != KindFloat {
			t.Errorf("FloatVal(%v) reads %#x, %d", f, math.Float64bits(v.Float()), v.Int())
		}
	}
	if v := StringVal("x"); v.Int() != 0 || v.Float() != 0 {
		t.Errorf("StringVal reads %d, %v", v.Int(), v.Float())
	}
}

// orderPool is where Compare and the key must hold up: ±0, ±Inf, NaN,
// ±2^53±1 and ±2^63 as ints and as floats (an int64 holds 2^63-1 and
// -2^63; a float64 holds 2^53±1 only as its nearest, 2^53 or 2^53±2),
// numbers Compare's old float64 conversion called equal, fractions,
// NULL, and strings that read as numbers.
func orderPool() []Value {
	var pool []Value
	for _, i := range []int64{0, 1, -1, 5, -3, 1 << 53, 1<<53 - 1, 1<<53 + 1, -1 << 53, -1<<53 + 1, -1<<53 - 1,
		math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1} {
		pool = append(pool, IntVal(i), FloatVal(float64(i)))
	}
	for _, f := range []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000001),
		0.5, -0.5, 5.5, 1e-300, 1<<53 + 2, -1<<53 - 2, 0x1p63, -0x1p63, 0x1p64, -0x1p64, math.MaxFloat64, -math.MaxFloat64,
		math.Nextafter(0x1p63, 0), math.Nextafter(-0x1p63, 0), math.Nextafter(-0x1p63, math.Inf(-1))} {
		pool = append(pool, FloatVal(f))
	}
	return append(pool, Null(), StringVal(""), StringVal("5"), StringVal("NaN"), StringVal("bear"))
}

func sign(c int) int { return max(-1, min(1, c)) }

// TestCompareIsTotalOrder: over every pair and triple of the pool,
// Compare is reflexive, antisymmetric and transitive, in its order and in
// its equality — the properties sorting, grouping and every index rely
// on, which comparing an int with a float through float64, or a NaN equal
// to everything, broke.
func TestCompareIsTotalOrder(t *testing.T) {
	pool := orderPool()
	for _, a := range pool {
		if c := a.Compare(a); c != 0 {
			t.Errorf("%v %v: Compare with itself = %d", a.Kind, a, c)
		}
		for _, b := range pool {
			if ab, ba := sign(a.Compare(b)), sign(b.Compare(a)); ab != -ba {
				t.Errorf("%v %v, %v %v: Compare %d one way, %d the other", a.Kind, a, b.Kind, b, ab, ba)
			}
			for _, c := range pool {
				ab, bc, ac := sign(a.Compare(b)), sign(b.Compare(c)), sign(a.Compare(c))
				if ab == bc && ac != ab || ab == 0 && ac != bc || bc == 0 && ac != ab {
					t.Fatalf("%v %v, %v %v, %v %v: Compare %d, %d, but %d end to end", a.Kind, a, b.Kind, b, c.Kind, c, ab, bc, ac)
				}
			}
		}
	}
	// The places the order gives the values the float64 conversion lost.
	for _, c := range []struct {
		a, b Value
		want int
	}{
		{IntVal(1<<53 + 1), FloatVal(1 << 53), 1},
		{IntVal(math.MaxInt64), FloatVal(0x1p63), -1},
		{IntVal(math.MinInt64), FloatVal(-0x1p63), 0},
		{FloatVal(math.NaN()), FloatVal(math.Inf(1)), 1},
		{FloatVal(math.NaN()), IntVal(math.MaxInt64), 1},
		{FloatVal(math.NaN()), StringVal(""), -1},
		{FloatVal(math.NaN()), FloatVal(math.Float64frombits(0x7ff8000000000001)), 0},
		{FloatVal(math.Copysign(0, -1)), IntVal(0), 0},
		{FloatVal(-0.5), IntVal(0), -1},
		{FloatVal(5.5), IntVal(5), 1},
	} {
		if got := sign(c.a.Compare(c.b)); got != c.want {
			t.Errorf("%v %v against %v %v: Compare %d, want %d", c.a.Kind, c.a, c.b.Kind, c.b, got, c.want)
		}
	}
}

// TestKeyFollowsCompare: two values have equal keys, and equal key
// bytes, exactly when Compare calls them equal; the bytes of a list are
// the concatenation of its values' bytes, and distinct lists of strings
// cannot run into each other.
func TestKeyFollowsCompare(t *testing.T) {
	pool := orderPool()
	for _, a := range pool {
		for _, b := range pool {
			equal := a.Compare(b) == 0
			if same := a.Key() == b.Key(); same != equal {
				t.Errorf("%v %v and %v %v: keys equal %v, Compare equal %v", a.Kind, a, b.Kind, b, same, equal)
			}
			if same := string(AppendKey(nil, a)) == string(AppendKey(nil, b)); same != equal {
				t.Errorf("%v %v and %v %v: key bytes %q and %q, Compare equal %v", a.Kind, a, b.Kind, b,
					AppendKey(nil, a), AppendKey(nil, b), equal)
			}
			if ab := AppendKey(nil, a, b); string(ab) != string(AppendKey(AppendKey(nil, a), b)) {
				t.Errorf("%v, %v: the list's bytes %q are not its values' end to end", a, b, ab)
			}
		}
	}
	x, y := AppendKey(nil, StringVal("a|"), StringVal("b")), AppendKey(nil, StringVal("a"), StringVal("|b"))
	if string(x) == string(y) {
		t.Errorf("strings run into each other: %q", x)
	}
}

// TestKeyBytesKeepTheirForm pins the bytes of ints, strings and NULL,
// which digests of parameter lists are computed over.
func TestKeyBytesKeepTheirForm(t *testing.T) {
	got := string(AppendKey(nil, IntVal(-42), StringVal("a:b"), Null(), FloatVal(5), FloatVal(2.5), FloatVal(math.NaN())))
	if want := "i-42|s3:a:b|n|i5|f2.5|fNaN|"; got != want {
		t.Errorf("AppendKey = %q, want %q", got, want)
	}
}
