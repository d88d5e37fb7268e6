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

// decodeValue consumes one value from b and returns the remainder. The
// returned value's string data is copied out of b.
func decodeValue(b []byte) (sqlparse.Value, []byte, error) {
	if len(b) == 0 {
		return sqlparse.Value{}, nil, errMalformed
	}
	kind, b := sqlparse.ValueKind(b[0]), b[1:]
	switch kind {
	case sqlparse.KindNull:
		return sqlparse.Null(), b, nil
	case sqlparse.KindInt:
		if len(b) < 8 {
			return sqlparse.Value{}, nil, errMalformed
		}
		return sqlparse.IntVal(int64(binary.BigEndian.Uint64(b))), b[8:], nil
	case sqlparse.KindFloat:
		if len(b) < 8 {
			return sqlparse.Value{}, nil, errMalformed
		}
		return sqlparse.FloatVal(math.Float64frombits(binary.BigEndian.Uint64(b))), b[8:], nil
	case sqlparse.KindString:
		n, rest, err := Uvarint(b)
		if err != nil || n > uint64(len(rest)) {
			return sqlparse.Value{}, nil, errMalformed
		}
		return sqlparse.StringVal(string(rest[:n])), rest[n:], nil
	default:
		return sqlparse.Value{}, nil, errMalformed
	}
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

// decodeString consumes one uvarint-length-prefixed string.
func decodeString(b []byte) (string, []byte, error) {
	n, rest, err := Uvarint(b)
	if err != nil || n > uint64(len(rest)) {
		return "", nil, errMalformed
	}
	return string(rest[:n]), rest[n:], nil
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

// decodeResult decodes a sealed result body. The returned result is
// freshly allocated — nothing aliases b.
func decodeResult(b []byte) (*engine.Result, error) {
	var err error
	r := &engine.Result{}
	ncols, b, err := decodeCount(b)
	if err != nil {
		return nil, errMalformed
	}
	if ncols > 0 {
		r.Columns = make([]string, ncols)
		for i := range r.Columns {
			if r.Columns[i], b, err = decodeString(b); err != nil {
				return nil, errMalformed
			}
		}
	}
	nrows, b, err := decodeCount(b)
	if err != nil {
		return nil, errMalformed
	}
	if nrows > 0 {
		r.Rows = make([][]sqlparse.Value, nrows)
		for i := range r.Rows {
			var width int
			if width, b, err = decodeCount(b); err != nil {
				return nil, errMalformed
			}
			row := make([]sqlparse.Value, width)
			for j := range row {
				if row[j], b, err = decodeValue(b); err != nil {
					return nil, errMalformed
				}
			}
			r.Rows[i] = row
		}
	}
	scanned, rest, err := Uvarint(b)
	if err != nil || len(rest) != 0 || scanned > math.MaxInt32 {
		return nil, errMalformed
	}
	r.RowsScanned = int(scanned)
	return r, nil
}
