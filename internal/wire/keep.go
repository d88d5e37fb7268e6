package wire

import (
	"dssp/internal/engine"
	"dssp/internal/sqlparse"
)

// A node keeps what a miss fetched as one cache entry: the query, less
// what belonged to the one request that fetched it, and its answer. Both
// reach the cache lent — the query from the miss's pooled call
// (SealedQuery.KeepIn), the answer from the home's scratch or from the
// frame it arrived in, or an imported entry from the bucket stream — and
// the entry is their one keeper: the cache measures them (EntrySize),
// makes the entry in one allocation sized to them, and copies them in
// (KeepEntry). Every string the entry holds is then a frozen view of the
// entry's own bytes (freeze), so the cache never reuses an entry's memory.

// EntrySize returns the memory KeepEntry copies sq and sr into: n values —
// the query's parameters, then a result's in the clear — and m bytes: the
// query's key and its parameters' strings, then a cipher, or the strings
// of a view result still encoded, and its column names unless they are
// columns. The strings of a result by pointer are not counted: they are
// immutable (engine.Result), and the entry shares them. sr is as the home
// answered it, or as ReadSealedResult lent it.
func EntrySize(sq *SealedQuery, sr *SealedResult, columns []string) (n, m int) {
	n, m = paramsSize(sq)
	m += len(sq.Key)
	switch {
	case sr.view != nil:
		l, _ := layoutResult(sr.view, columns) // ReadSealedResult checked it
		n, m = n+l.n, m+l.m
	case sr.Result != nil:
		n += len(sr.Result.Vals)
	default:
		m += len(sr.Cipher)
	}
	return n, m
}

// paramsSize returns how many parameters sq has, decoded or still
// encoded, and the bytes of their strings.
func paramsSize(sq *SealedQuery) (n, m int) {
	if sq.params == "" {
		for _, v := range sq.Params {
			m += len(v.Str)
		}
		return len(sq.Params), m
	}
	n, p, _ := decodeCount(sq.params)
	for i := 0; i < n; i++ {
		var str string
		_, str, p, _ = splitValue(p)
		m += len(str)
	}
	return n, m
}

// KeepEntry copies sq and sr into an entry's memory — res, and vals and b,
// exactly as many as EntrySize counts — and returns them as the entry holds
// them: the query with its key and parameters in vals and b, and no trace
// IDs or payload, which belonged to the one request that fetched it; the
// result with a cipher in b, or in the clear in res, its values in vals.
// A view result still encoded is decoded there, its strings into b, and
// its Columns is columns when its names are those; a result by pointer
// shares its strings, and its Columns is columns, or its own when columns
// is nil. Nothing returned lies in what sq or sr lie in.
func KeepEntry(sq *SealedQuery, sr *SealedResult, columns []string, res *engine.Result, vals []sqlparse.Value, b []byte) (SealedQuery, SealedResult) {
	q := SealedQuery{Exposure: sq.Exposure, TemplateID: sq.TemplateID, Group: sq.Group}
	q.Key, b = keepString(sq.Key, b)
	params := vals[:0]
	if sq.params != "" {
		n, p, _ := decodeCount(sq.params)
		for ; n > 0; n-- {
			var v sqlparse.Value
			var str string
			v, str, p, _ = splitValue(p)
			v.Str, b = keepString(str, b)
			params = append(params, v)
		}
	} else {
		for _, v := range sq.Params {
			v.Str, b = keepString(v.Str, b)
			params = append(params, v)
		}
	}
	if n := len(params); n > 0 {
		q.Params, vals = params[:n:n], vals[n:]
	}
	switch {
	case sr.view != nil:
		l, _ := layoutResult(sr.view, columns)
		fillResult(sr.view, l, res, vals, b)
		return q, SealedResult{Result: res}
	case sr.Result != nil:
		if columns == nil {
			columns = sr.Result.Columns
		}
		sr.Result.CloneInto(res, columns, vals)
		return q, SealedResult{Result: res}
	case sr.Cipher != nil:
		cipher := b[:copy(b, sr.Cipher)]
		if cipher == nil {
			cipher = []byte{} // a sealed result of no bytes, not "no result"
		}
		return q, SealedResult{Cipher: cipher[:len(cipher):len(cipher)]}
	default:
		return q, SealedResult{}
	}
}
