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

// Compare orders two values. NULL sorts before everything; numeric kinds
// compare numerically across int/float; strings compare lexicographically.
// Comparing a string with a number orders the number first (a total order is
// required for sorting; mixed-kind comparisons never arise in well-typed
// workloads).
func (v Value) Compare(o Value) int {
	vn, on := v.Kind == KindInt || v.Kind == KindFloat, o.Kind == KindInt || o.Kind == KindFloat
	switch {
	case v.Kind == KindNull && o.Kind == KindNull:
		return 0
	case v.Kind == KindNull:
		return -1
	case o.Kind == KindNull:
		return 1
	case vn && on:
		if v.Kind == KindInt && o.Kind == KindInt {
			switch a, b := int64(v.bits), int64(o.bits); {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	case vn:
		return -1
	case on:
		return 1
	default:
		return strings.Compare(v.Str, o.Str)
	}
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
