package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
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
//     (pooled) buffers and decoding allocates only the returned values —
//     or nothing, where the reader lends them (Codec.ReadPayload).
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
//
// where every row's width is ncols, and a result of no columns has no rows
// (engine.Result holds its rows as one array of ncols values each).

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
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.Int()))
	case sqlparse.KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.Float()))
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
func Uvarint(b []byte) (uint64, []byte, error) { return uvarint(b) }

// text is what the grammar is read from: the bytes of a frame, or a string
// — a query read in place keeps its parameters encoded in the string its
// other strings lie in, until its keeper decodes them (SealedQuery.KeepIn,
// KeepEntry). The readers below take either, so the grammar is checked in
// one place whichever it is read from.
type text interface{ ~string | ~[]byte }

// uvarint is Uvarint over either kind of text: binary.Uvarint's loop,
// which takes bytes only, with the minimal-form rule — a last byte of 0
// after the first adds nothing.
func uvarint[T text](b T) (uint64, T, error) {
	var n uint64
	for i := 0; i < len(b) && i < binary.MaxVarintLen64; i++ {
		c := b[i]
		if c < 0x80 {
			if (i == binary.MaxVarintLen64-1 && c > 1) || (i > 0 && c == 0) {
				break // overflow, or not minimal
			}
			return n | uint64(c)<<(7*i), b[i+1:], nil
		}
		n |= uint64(c&0x7f) << (7 * i)
	}
	var none T
	return 0, none, errMalformed
}

// be64 is binary.BigEndian.Uint64 over either kind of text; b holds at
// least 8 bytes.
func be64[T text](b T) uint64 {
	_ = b[7]
	return uint64(b[7]) | uint64(b[6])<<8 | uint64(b[5])<<16 | uint64(b[4])<<24 |
		uint64(b[3])<<32 | uint64(b[2])<<40 | uint64(b[1])<<48 | uint64(b[0])<<56
}

// splitValue consumes one value from b and returns the remainder. A
// string's bytes come back as str, still aliasing b, with v.Str left empty:
// the caller decides where the copy lives. This is the one place the value
// grammar is checked.
func splitValue[T text](b T) (v sqlparse.Value, str, rest T, err error) {
	var none T
	if len(b) == 0 {
		return sqlparse.Value{}, none, none, errMalformed
	}
	kind, b := sqlparse.ValueKind(b[0]), b[1:]
	switch kind {
	case sqlparse.KindNull:
		return sqlparse.Null(), none, b, nil
	case sqlparse.KindInt:
		if len(b) < 8 {
			return sqlparse.Value{}, none, none, errMalformed
		}
		return sqlparse.IntVal(int64(be64(b))), none, b[8:], nil
	case sqlparse.KindFloat:
		if len(b) < 8 {
			return sqlparse.Value{}, none, none, errMalformed
		}
		return sqlparse.FloatVal(math.Float64frombits(be64(b))), none, b[8:], nil
	case sqlparse.KindString:
		if str, rest, err = splitString(b); err != nil {
			return sqlparse.Value{}, none, none, errMalformed
		}
		return sqlparse.Value{Kind: sqlparse.KindString}, str, rest, nil
	default:
		return sqlparse.Value{}, none, none, errMalformed
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

// splitString consumes one uvarint-length-prefixed string and returns its
// bytes, still aliasing b.
func splitString[T text](b T) (str, rest T, err error) {
	n, rest, err := uvarint(b)
	if err != nil || n > uint64(len(rest)) {
		var none T
		return none, none, errMalformed
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
func decodeCount[T text](b T) (int, T, error) {
	n, rest, err := uvarint(b)
	if err != nil || n > uint64(len(rest)) {
		var none T
		return 0, none, errMalformed
	}
	return int(n), rest, nil
}

// splitPayload consumes an opaque statement payload's head: its template
// ID, still aliasing b, and its parameter count, bounded by the input left.
func splitPayload(b []byte) (templateID []byte, n int, rest []byte, err error) {
	if templateID, b, err = splitString(b); err != nil {
		return nil, 0, nil, errMalformed
	}
	if n, b, err = decodeCount(b); err != nil {
		return nil, 0, nil, errMalformed
	}
	return templateID, n, b, nil
}

// readParams appends to dst the n values b holds and requires b to hold
// nothing after them: trailing bytes are not a canonical encoding. A
// string's bytes are lent from b (lend). dst grows by n at most once.
func readParams(dst []sqlparse.Value, n int, b []byte) ([]sqlparse.Value, error) {
	dst = slices.Grow(dst, n)
	for ; n > 0; n-- {
		v, str, rest, err := splitValue(b)
		if err != nil {
			return dst, errMalformed
		}
		if v.Kind == sqlparse.KindString {
			v.Str = lend(str)
		}
		dst, b = append(dst, v), rest
	}
	if len(b) != 0 {
		return dst, errMalformed
	}
	return dst, nil
}

// appendResult appends a materialized query result.
func appendResult(dst []byte, r *engine.Result) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.Columns)))
	for _, c := range r.Columns {
		dst = binary.AppendUvarint(dst, uint64(len(c)))
		dst = append(dst, c...)
	}
	n := r.Len()
	dst = binary.AppendUvarint(dst, uint64(n))
	for i := range n {
		row := r.Row(i)
		dst = binary.AppendUvarint(dst, uint64(len(row)))
		dst = appendParams(dst, row)
	}
	return binary.AppendUvarint(dst, uint64(r.RowsScanned))
}

// shape is what measureResult counts in a result: its columns, its rows,
// and the bytes of its string values.
type shape struct{ ncols, nrows, strBytes int }

// measureResult is the check of decodeResultInto's pass one: it checks b
// against the whole result grammar — minimal uvarints, every count bounded
// by the input left, every row as wide as the columns, no rows without
// columns, no trailing bytes — and reports its shape. Every counted
// element costs at least one byte, so no count exceeds len(b).
func measureResult(b []byte) (sh shape, err error) {
	if sh.ncols, b, err = decodeCount(b); err != nil {
		return shape{}, errMalformed
	}
	for i := 0; i < sh.ncols; i++ {
		if _, b, err = splitString(b); err != nil {
			return shape{}, errMalformed
		}
	}
	if sh.nrows, b, err = decodeCount(b); err != nil || (sh.nrows > 0 && sh.ncols == 0) {
		return shape{}, errMalformed
	}
	for i := 0; i < sh.nrows; i++ {
		var width int
		if width, b, err = decodeCount(b); err != nil || width != sh.ncols {
			return shape{}, errMalformed
		}
		for j := 0; j < width; j++ {
			var str []byte
			if _, str, b, err = splitValue(b); err != nil {
				return shape{}, errMalformed
			}
			sh.strBytes += len(str)
		}
	}
	scanned, rest, err := Uvarint(b)
	if err != nil || len(rest) != 0 || scanned > math.MaxInt32 {
		return shape{}, errMalformed
	}
	return sh, nil
}

// A ResultBox is the memory a caller opens a result into, chosen once the
// result is measured (Codec.OpenResultInto): Box returns the result to
// fill and room for exactly its n values and its m string bytes, which may
// all lie in one allocation the caller sizes to them. The box is the
// result's for good: every string of the result is a frozen view of the
// bytes (freeze), so the caller never reuses a box, nor pools it.
type ResultBox interface {
	Box(n, m int) (*engine.Result, []sqlparse.Value, []byte)
}

// boxFor returns where a result of n values and m string bytes opens: what
// box supplies, or, with no box, r and arrays of their own, sized to it.
func boxFor(box ResultBox, r *engine.Result, n, m int) (*engine.Result, []sqlparse.Value, []byte) {
	if box != nil {
		return box.Box(n, m)
	}
	return r, make([]sqlparse.Value, n), make([]byte, m)
}

// decodeResultInto decodes a sealed result body in two passes, so that the
// result costs the same handful of allocations whatever its row count:
// measureResult validates and counts, then the values are read into one
// exactly-sized array and the bytes of every string — column names
// included — are copied, end to end, into one array of their own. It
// decodes into r, which the caller allocated, or, when box is not nil,
// into the result, values and string bytes box supplies; its Columns is
// columns when the names b holds are those: the names the caller shares
// among the results it opens. Then no name's bytes are copied, and there
// is no string array when no string value has a byte. Nothing returned
// aliases b; the strings of one result do share their array, so holding
// one holds them all. Nothing is written when b is refused.
func decodeResultInto(b []byte, r *engine.Result, columns []string, box ResultBox) error {
	l, err := layoutResult(b, columns)
	if err != nil {
		return err
	}
	r, vals, strs := boxFor(box, r, l.n, l.m)
	fillResult(b, l, r, vals, strs)
	return nil
}

// layout is what pass one of a decode finds in a result body: its shape,
// the names its Columns shares when the body's are those (nil otherwise),
// and the values and string bytes the decoded result takes.
type layout struct {
	sh      shape
	columns []string
	n, m    int
}

// layoutResult is pass one of decodeResultInto: measureResult, then
// whether the body's column names are columns.
func layoutResult(b []byte, columns []string) (layout, error) {
	sh, err := measureResult(b)
	if err != nil {
		return layout{}, err
	}
	var str []byte
	_, b, _ = decodeCount(b)
	shared := sh.ncols > 0 && sh.ncols == len(columns)
	nameBytes := 0
	for i := 0; i < sh.ncols; i++ {
		str, b, _ = splitString(b)
		shared = shared && string(str) == columns[i]
		nameBytes += len(str)
	}
	l := layout{sh: sh, n: sh.nrows * sh.ncols, m: sh.strBytes}
	if shared {
		l.columns = columns
	} else {
		l.m += nameBytes
	}
	return l, nil
}

// fillResult is pass two of decodeResultInto: it reads the body pass one
// accepted into r, its values into vals and the bytes of its strings into
// strs, exactly as many as l counts. No step can fail.
func fillResult(b []byte, l layout, r *engine.Result, vals []sqlparse.Value, strs []byte) {
	var str []byte
	*r = engine.Result{}
	// copyOf copies str to the front of strs and returns the copy.
	copyOf := func(str []byte) string {
		var s string
		s, strs = keepString(str, strs)
		return s
	}
	ncols, b, _ := decodeCount(b)
	names := b
	for i := 0; i < ncols; i++ {
		_, b, _ = splitString(b)
	}
	if l.columns != nil {
		r.Columns = l.columns
	} else if ncols > 0 {
		r.Columns = make([]string, ncols)
		for i := range r.Columns {
			str, names, _ = splitString(names)
			r.Columns[i] = copyOf(str)
		}
	}
	_, b, _ = decodeCount(b)
	if l.n > 0 {
		r.Vals = vals[:l.n:l.n]
		for row := r.Vals; len(row) > 0; row = row[ncols:] {
			_, b, _ = decodeCount(b) // the row's width, which is ncols
			for j := range ncols {
				if row[j], str, b, _ = splitValue(b); row[j].Kind == sqlparse.KindString {
					row[j].Str = copyOf(str)
				}
			}
		}
	}
	scanned, _, _ := Uvarint(b)
	r.RowsScanned = int(scanned)
}

// keepString copies str to the front of b and returns the copy, frozen,
// and the rest of b; an empty str takes nothing.
func keepString[T text](str T, b []byte) (string, []byte) {
	if len(str) == 0 {
		return "", b
	}
	n := copy(b, str)
	return freeze(b[:n]), b[n:]
}
