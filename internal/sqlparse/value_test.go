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
