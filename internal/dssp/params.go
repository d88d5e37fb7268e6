package dssp

import (
	"fmt"

	"dssp/internal/engine"
	"dssp/internal/sqlparse"
)

// QueryResult pairs a plaintext result with how it was served.
type QueryResult struct {
	Result  *engine.Result
	Outcome QueryOutcome
}

// Params converts Go values to SQL parameter values. Supported types:
// int, int64, float64, string, and sqlparse.Value (passed through).
func Params(args ...interface{}) ([]sqlparse.Value, error) {
	vals, err := appendParams(make([]sqlparse.Value, 0, len(args)), args)
	if err != nil {
		return nil, err
	}
	return vals, nil
}

// appendParams appends args, converted as Params converts them, to dst:
// a query converts its parameters into its pooled scratch.
func appendParams(dst []sqlparse.Value, args []interface{}) ([]sqlparse.Value, error) {
	for _, a := range args {
		switch v := a.(type) {
		case int:
			dst = append(dst, sqlparse.IntVal(int64(v)))
		case int64:
			dst = append(dst, sqlparse.IntVal(v))
		case float64:
			dst = append(dst, sqlparse.FloatVal(v))
		case string:
			dst = append(dst, sqlparse.StringVal(v))
		case sqlparse.Value:
			dst = append(dst, v)
		default:
			return dst, fmt.Errorf("dssp: unsupported parameter type %T", a)
		}
	}
	return dst, nil
}
