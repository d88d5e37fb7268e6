package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"

	"dssp/internal/engine"
	"dssp/internal/sqlparse"
)

// Deterministic binary encoding of SQL values, statements, payloads, and
// results. The format serves two masters at once:
//
//   - cache keys: the DSSP looks results up by (tokens of) these bytes,
//     so the encoding must be canonical — equal inputs always produce
//     equal bytes — and injective — distinct inputs never collide. Every
//     value is kind-tagged and either fixed-width or length-delimited, so
//     a byte stream parses as exactly one value sequence; the previous
//     textual rendering separated values with NUL and let a FLOAT and an
//     INT of equal numeric value share one encoding.
//   - the opaque payload and sealed results: encode/decode sits on the
//     per-message hot path, so encoding appends to caller-supplied
//     (pooled) buffers and decoding allocates only the returned values.
//
// Wire grammar:
//
//	value   = 0x00                      (NULL)
//	        | 0x01 int64-big-endian     (INT)
//	        | 0x02 float64-bits-BE      (FLOAT)
//	        | 0x03 uvarint(len) bytes   (STRING)
//	params  = value*                    (self-delimiting)
//	stmt    = uvarint(len) sql params
//	payload = uvarint(len) templateID uvarint(nparams) value*
//	result  = uvarint(ncols) { uvarint(len) name }*
//	          uvarint(nrows) { uvarint(width) value* }*
//	          uvarint(rowsScanned)

var errMalformed = errors.New("wire: malformed encoding")

// encBuf is pooled encode/decode scratch. Callers must not retain eb.b
// (or anything decoded in place from it) past putBuf.
type encBuf struct{ b []byte }

// maxPooledBuf bounds the capacity a returned buffer may keep: one giant
// result must not pin its arena in the pool forever.
const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{New: func() any { return new(encBuf) }}

func getBuf() *encBuf { return bufPool.Get().(*encBuf) }

func putBuf(eb *encBuf) {
	if cap(eb.b) <= maxPooledBuf {
		bufPool.Put(eb)
	}
}

// appendValue appends one kind-tagged value.
func appendValue(dst []byte, v sqlparse.Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case sqlparse.KindNull:
	case sqlparse.KindInt:
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.Int))
	case sqlparse.KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.Float))
	case sqlparse.KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.Str)))
		dst = append(dst, v.Str...)
	default:
		// Unknown kinds cannot round-trip; encode as an impossible tag so
		// decoding fails loudly instead of silently colliding.
		dst = append(dst, 0xFF)
	}
	return dst
}

// Uvarint consumes one minimally-encoded uvarint and returns the
// remainder. Rejecting non-minimal forms (e.g. 0x80 0x00 for zero) keeps
// the accepted language canonical: every valid encoding decodes to values
// that re-encode to exactly it. Exported for the envelope codecs of
// package httpapi, which extend this grammar and must share the rule.
func Uvarint(b []byte) (uint64, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || (w > 1 && n>>(7*(w-1)) == 0) {
		return 0, nil, errMalformed
	}
	return n, b[w:], nil
}

// splitValue consumes one value from b and returns the remainder. A
// string's bytes come back as str, still aliasing b, with v.Str left empty:
// the caller decides where the copy lives. This is the one place the value
// grammar is checked.
func splitValue(b []byte) (v sqlparse.Value, str, rest []byte, err error) {
	if len(b) == 0 {
		return sqlparse.Value{}, nil, nil, errMalformed
	}
	kind, b := sqlparse.ValueKind(b[0]), b[1:]
	switch kind {
	case sqlparse.KindNull:
		return sqlparse.Null(), nil, b, nil
	case sqlparse.KindInt:
		if len(b) < 8 {
			return sqlparse.Value{}, nil, nil, errMalformed
		}
		return sqlparse.IntVal(int64(binary.BigEndian.Uint64(b))), nil, b[8:], nil
	case sqlparse.KindFloat:
		if len(b) < 8 {
			return sqlparse.Value{}, nil, nil, errMalformed
		}
		return sqlparse.FloatVal(math.Float64frombits(binary.BigEndian.Uint64(b))), nil, b[8:], nil
	case sqlparse.KindString:
		if str, rest, err = splitString(b); err != nil {
			return sqlparse.Value{}, nil, nil, errMalformed
		}
		return sqlparse.Value{Kind: sqlparse.KindString}, str, rest, nil
	default:
		return sqlparse.Value{}, nil, nil, errMalformed
	}
}

// decodeValue consumes one value from b and returns the remainder. The
// returned value's string data is copied out of b.
func decodeValue(b []byte) (sqlparse.Value, []byte, error) {
	v, str, rest, err := splitValue(b)
	if v.Kind == sqlparse.KindString {
		v.Str = string(str)
	}
	return v, rest, err
}

// appendParams appends the parameter encoding. Values are self-delimiting,
// so plain concatenation is injective with no separator or count.
func appendParams(dst []byte, params []sqlparse.Value) []byte {
	for _, v := range params {
		dst = appendValue(dst, v)
	}
	return dst
}

// appendStmt appends a whole-statement encoding: the template SQL,
// length-prefixed so it can never bleed into the parameter encoding, then
// the parameters. This is the blind lookup-key material.
func appendStmt(dst []byte, sql string, params []sqlparse.Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(sql)))
	dst = append(dst, sql...)
	return appendParams(dst, params)
}

// appendPayload appends the opaque statement payload: template identity
// plus parameters.
func appendPayload(dst []byte, templateID string, params []sqlparse.Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(templateID)))
	dst = append(dst, templateID...)
	dst = binary.AppendUvarint(dst, uint64(len(params)))
	return appendParams(dst, params)
}

// splitString consumes one uvarint-length-prefixed string and returns its
// bytes, still aliasing b.
func splitString(b []byte) (str, rest []byte, err error) {
	n, rest, err := Uvarint(b)
	if err != nil || n > uint64(len(rest)) {
		return nil, nil, errMalformed
	}
	return rest[:n], rest[n:], nil
}

// decodeString consumes one uvarint-length-prefixed string.
func decodeString(b []byte) (string, []byte, error) {
	str, rest, err := splitString(b)
	return string(str), rest, err
}

// decodeCount consumes one uvarint and bounds it by the remaining input:
// every counted element costs at least one encoded byte, so any larger
// count is corrupt — rejecting it here keeps decode from pre-allocating
// unbounded slices for forged payloads.
func decodeCount(b []byte) (int, []byte, error) {
	n, rest, err := Uvarint(b)
	if err != nil || n > uint64(len(rest)) {
		return 0, nil, errMalformed
	}
	return int(n), rest, nil
}

// decodePayload decodes an opaque statement payload. Everything returned
// is freshly allocated — nothing aliases b.
func decodePayload(b []byte) (templateID string, params []sqlparse.Value, err error) {
	templateID, b, err = decodeString(b)
	if err != nil {
		return "", nil, errMalformed
	}
	n, b, err := decodeCount(b)
	if err != nil {
		return "", nil, errMalformed
	}
	if n > 0 {
		params = make([]sqlparse.Value, n)
		for i := range params {
			if params[i], b, err = decodeValue(b); err != nil {
				return "", nil, errMalformed
			}
		}
	}
	if len(b) != 0 {
		return "", nil, errMalformed // trailing bytes: not a canonical encoding
	}
	return templateID, params, nil
}

// appendResult appends a materialized query result.
func appendResult(dst []byte, r *engine.Result) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.Columns)))
	for _, c := range r.Columns {
		dst = binary.AppendUvarint(dst, uint64(len(c)))
		dst = append(dst, c...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Rows)))
	for _, row := range r.Rows {
		dst = binary.AppendUvarint(dst, uint64(len(row)))
		dst = appendParams(dst, row)
	}
	return binary.AppendUvarint(dst, uint64(r.RowsScanned))
}

// measureResult is pass one of decodeResult: it checks b against the whole
// result grammar — minimal uvarints, every count bounded by the input left,
// no trailing bytes — and reports how many columns, rows and values (over
// all rows) it holds. Every counted element costs at least one byte, so
// none of the three exceeds len(b).
func measureResult(b []byte) (ncols, nrows, nvals int, err error) {
	if ncols, b, err = decodeCount(b); err != nil {
		return 0, 0, 0, errMalformed
	}
	for i := 0; i < ncols; i++ {
		if _, b, err = splitString(b); err != nil {
			return 0, 0, 0, errMalformed
		}
	}
	if nrows, b, err = decodeCount(b); err != nil {
		return 0, 0, 0, errMalformed
	}
	for i := 0; i < nrows; i++ {
		var width int
		if width, b, err = decodeCount(b); err != nil {
			return 0, 0, 0, errMalformed
		}
		nvals += width
		for j := 0; j < width; j++ {
			if _, _, b, err = splitValue(b); err != nil {
				return 0, 0, 0, errMalformed
			}
		}
	}
	scanned, rest, err := Uvarint(b)
	if err != nil || len(rest) != 0 || scanned > math.MaxInt32 {
		return 0, 0, 0, errMalformed
	}
	return ncols, nrows, nvals, nil
}

// decodeResult decodes a sealed result body in two passes, so that the
// result costs the same handful of allocations whatever its row count:
// measureResult validates and counts, then the rows are carved out of one
// exactly-sized value slab and every string — column names included — is a
// substring of one copy of the body. Nothing returned aliases b; the
// strings of one result do share that copy, so holding one holds them all.
func decodeResult(b []byte) (*engine.Result, error) {
	r := new(engine.Result)
	if err := decodeResultInto(b, r); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeResultInto is decodeResult into a result the caller allocated —
// one that shares an allocation with its holder. r is overwritten only
// when b is accepted.
func decodeResultInto(b []byte, r *engine.Result) error {
	ncols, nrows, nvals, err := measureResult(b)
	if err != nil {
		return err
	}
	// Pass two reads what pass one accepted: no step below can fail.
	arena := string(b)
	// copyOf maps str, which ends where rest begins in b, to its copy.
	copyOf := func(str, rest []byte) string {
		end := len(arena) - len(rest)
		return arena[end-len(str) : end]
	}
	*r = engine.Result{}
	var str []byte
	_, b, _ = decodeCount(b)
	if ncols > 0 {
		r.Columns = make([]string, ncols)
		for i := range r.Columns {
			str, b, _ = splitString(b)
			r.Columns[i] = copyOf(str, b)
		}
	}
	_, b, _ = decodeCount(b)
	if nrows > 0 {
		r.Rows = make([][]sqlparse.Value, nrows)
		slab := make([]sqlparse.Value, nvals)
		for i := range r.Rows {
			var width int
			width, b, _ = decodeCount(b)
			row := slab[:width:width]
			slab = slab[width:]
			for j := range row {
				if row[j], str, b, _ = splitValue(b); row[j].Kind == sqlparse.KindString {
					row[j].Str = copyOf(str, b)
				}
			}
			r.Rows[i] = row
		}
	}
	scanned, _, _ := Uvarint(b)
	r.RowsScanned = int(scanned)
	return nil
}
