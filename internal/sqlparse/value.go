// Package sqlparse implements a lexer and parser for the SQL subset used by
// the paper "Simultaneous Scalability and Security for Data-Intensive Web
// Applications" (SIGMOD 2006): select-project-join queries with conjunctive
// arithmetic selection predicates, optional ORDER BY, TOP-k (LIMIT),
// aggregation and GROUP BY, plus three kinds of updates (insertions,
// deletions, and modifications). Statements may contain `?` placeholders
// that are bound to parameter values at execution time, forming the
// query/update *templates* of a Web application.
package sqlparse

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ValueKind discriminates the dynamic type of a Value.
type ValueKind uint8

// The value kinds supported by the SQL subset.
const (
	KindNull ValueKind = iota
	KindInt
	KindFloat
	KindString
)

func (k ValueKind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	default:
		return fmt.Sprintf("ValueKind(%d)", uint8(k))
	}
}

// Value is a dynamically typed SQL value. The zero Value is NULL.
//
// A value is 32 bytes: its kind, one 8-byte payload and Str. The payload
// holds an int's two's complement or a float's IEEE 754 bits, which Int
// and Float read back. Rows, results and parameter lists are slices of
// values, so every column the engine, the wire decoder and the cache hold
// pays for the layout.
type Value struct {
	Kind ValueKind
	bits uint64
	Str  string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// IntVal returns an integer Value.
func IntVal(v int64) Value { return Value{Kind: KindInt, bits: uint64(v)} }

// FloatVal returns a floating-point Value.
func FloatVal(v float64) Value { return Value{Kind: KindFloat, bits: math.Float64bits(v)} }

// Int returns an integer value's int64, and 0 for any other kind.
func (v Value) Int() int64 {
	if v.Kind != KindInt {
		return 0
	}
	return int64(v.bits)
}

// Float returns a floating-point value's float64, and 0 for any other
// kind.
func (v Value) Float() float64 {
	if v.Kind != KindFloat {
		return 0
	}
	return math.Float64frombits(v.bits)
}

// StringVal returns a string Value.
func StringVal(v string) Value { return Value{Kind: KindString, Str: v} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsFloat converts a numeric Value to float64. It panics for non-numeric
// kinds; callers must check Kind first.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(int64(v.bits))
	case KindFloat:
		return math.Float64frombits(v.bits)
	default:
		panic("sqlparse: AsFloat on non-numeric value " + v.Kind.String())
	}
}

// Compare is the one total order on values, and Compare(o) == 0 the one
// equality (DESIGN.md, "One equality"): scans, predicates, ORDER BY,
// MIN/MAX, GROUP BY, primary-key and index probes, and every invalidation
// decision use it. NULL sorts first, then numbers, then strings, which
// compare bytewise. Clients bind parameters of either numeric kind
// against columns of either, so an int and a float compare by their exact
// values, not through float64: 5 equals 5.0 and -0.0 equals 0, but
// 2^53+1 is above the float 2^53. NaN equals only NaN and sorts after
// every number, +Inf included, as in PostgreSQL. SQL's NULL rule (a
// comparison with NULL holds for no operator) is the callers'.
func (v Value) Compare(o Value) int {
	if v.Kind == KindInt && o.Kind == KindInt {
		return cmp.Compare(int64(v.bits), int64(o.bits))
	}
	if c := cmp.Compare(v.Kind.rank(), o.Kind.rank()); c != 0 {
		return c
	}
	switch {
	case v.Kind == KindNull:
		return 0
	case v.Kind == KindString:
		return strings.Compare(v.Str, o.Str)
	case v.Kind == KindInt:
		return -compareFloatInt(o.Float(), v.Int())
	case o.Kind == KindInt:
		return compareFloatInt(v.Float(), o.Int())
	}
	// cmp.Compare sorts NaN first: negating both operands and the result
	// keeps every other order and sorts it last.
	return -cmp.Compare(-v.Float(), -o.Float())
}

// rank orders the kinds as declared, NULL, INT, STRING, with FLOAT one
// rank with INT.
func (k ValueKind) rank() ValueKind {
	if k == KindFloat {
		return KindInt
	}
	return k
}

// compareFloatInt orders a float against an int exactly: by the float's
// integral part, which an int64 holds once the float is within its range,
// then by its fraction.
func compareFloatInt(f float64, i int64) int {
	switch {
	case f != f || f >= 0x1p63:
		return 1
	case f < -0x1p63:
		return -1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(int64(t), i); c != 0 {
		return c
	}
	return cmp.Compare(f, t)
}

// Key is a value's class under Compare, as a value in canonical form:
// comparable, and equal for two values exactly when Compare calls them
// equal. A float that is an int64 (-0.0 included) takes that int's form,
// and every NaN one NaN; every other value is its own key.
type Key Value

// Key returns v's key.
func (v Value) Key() Key {
	if v.Kind == KindFloat {
		switch f := v.Float(); {
		case f == math.Trunc(f) && f >= -0x1p63 && f < 0x1p63:
			return Key(IntVal(int64(f)))
		case f != f:
			return Key(FloatVal(math.NaN()))
		}
	}
	return Key(v)
}

// AppendKey appends the byte form of the values' keys to dst: two lists
// of values have equal forms exactly when their keys are equal, pairwise,
// so the form keys a map by a list of values (storage's primary-key and
// secondary indexes, the engine's GROUP BY). A key is 'n' for NULL, 'i'
// and its decimal digits for an int, 'f' and its shortest decimal for any
// other number ("fNaN" for NaN), or 's', its length, ':' and its bytes for
// a string, and ends in '|'. A probe over a stack buffer,
// m[string(AppendKey(buf[:0], v))], allocates nothing.
func AppendKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		switch k := v.Key(); k.Kind {
		case KindNull:
			dst = append(dst, 'n')
		case KindInt:
			dst = append(dst, 'i')
			dst = strconv.AppendInt(dst, int64(k.bits), 10)
		case KindFloat:
			dst = append(dst, 'f')
			dst = strconv.AppendFloat(dst, math.Float64frombits(k.bits), 'g', -1, 64)
		case KindString:
			dst = append(dst, 's')
			dst = strconv.AppendInt(dst, int64(len(k.Str)), 10)
			dst = append(dst, ':')
			dst = append(dst, k.Str...)
		}
		dst = append(dst, '|')
	}
	return dst
}

// Equal reports whether two values compare equal.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// String renders the value as a SQL literal.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
	default:
		return fmt.Sprintf("Value(kind=%d)", v.Kind)
	}
}
