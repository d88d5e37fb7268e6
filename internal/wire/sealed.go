package wire

import (
	"encoding/binary"
	"math"

	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

// Sealed-message encoding: the one grammar a sealed query, update, or
// result has on any byte stream — the HTTP hops of package httpapi and
// the migration stream of bucket.go both call the functions below, so a
// sealed message has exactly one encoder and one decoder in the tree.
// Like the value encoding it builds on (values.go), the grammar is
// canonical: every accepted input re-encodes to exactly the bytes that
// were consumed.
//
//	query  = byte(exposure) [trace] str(templateID) uvarint(group)
//	         uvarint(nparams) value* str(key) str(opaque)
//	update = byte(exposure) trace str(templateID) uvarint(group)
//	         uvarint(nparams) value* str(opaque)
//	trace  = str(traceID) str(parentSpan)
//	result = 0x00                      (none)
//	       | 0x01 str(cipher)          (sealed result)
//	       | 0x02 str(result-encoding) (view-exposure plaintext)
//	str    = uvarint(len) bytes
//
// A query crossing a process boundary carries its trace metadata
// (WithTrace); a cache entry in flight between nodes does not (NoTrace) —
// TraceID/ParentSpan are per-request observability, and the migration
// stream's bytes predate and omit them. Updates only ever travel as
// requests, so they have the one form.
//
// Decoders consume one message from the front of b and return the
// remainder; the caller that owns the whole input rejects trailing
// bytes. Nothing returned aliases b, so b may be a pooled buffer. An
// absent and an empty Params (or Opaque) share an encoding and decode as
// nil; a nil Cipher is "no result", an empty one is a sealed result of
// no bytes.
const (
	WithTrace = true
	NoTrace   = false
)

// AppendSealedQuery appends sq to dst; trace selects the form.
func AppendSealedQuery(dst []byte, sq *SealedQuery, trace bool) []byte {
	dst = append(dst, byte(sq.Exposure))
	if trace {
		dst = appendString(dst, sq.TraceID)
		dst = appendString(dst, sq.ParentSpan)
	}
	dst = appendStatement(dst, sq.TemplateID, sq.Group, sq.Params)
	dst = appendString(dst, sq.Key)
	return appendBytes(dst, sq.Opaque)
}

// DecodeSealedQuery consumes one sealed query of the given form.
func DecodeSealedQuery(b []byte, trace bool) (SealedQuery, []byte, error) {
	var sq SealedQuery
	if len(b) == 0 {
		return sq, nil, errMalformed
	}
	sq.Exposure, b = template.Exposure(b[0]), b[1:]
	var err error
	if trace {
		if sq.TraceID, b, err = decodeString(b); err != nil {
			return sq, nil, errMalformed
		}
		if sq.ParentSpan, b, err = decodeString(b); err != nil {
			return sq, nil, errMalformed
		}
	}
	if sq.TemplateID, sq.Group, sq.Params, b, err = decodeStatement(b); err != nil {
		return sq, nil, errMalformed
	}
	if sq.Key, b, err = decodeString(b); err != nil {
		return sq, nil, errMalformed
	}
	if sq.Opaque, b, err = decodeOpaque(b); err != nil {
		return sq, nil, errMalformed
	}
	return sq, b, nil
}

// AppendSealedUpdate appends su to dst.
func AppendSealedUpdate(dst []byte, su *SealedUpdate) []byte {
	dst = append(dst, byte(su.Exposure))
	dst = appendString(dst, su.TraceID)
	dst = appendString(dst, su.ParentSpan)
	dst = appendStatement(dst, su.TemplateID, su.Group, su.Params)
	return appendBytes(dst, su.Opaque)
}

// DecodeSealedUpdate consumes one sealed update.
func DecodeSealedUpdate(b []byte) (SealedUpdate, []byte, error) {
	var su SealedUpdate
	if len(b) == 0 {
		return su, nil, errMalformed
	}
	su.Exposure, b = template.Exposure(b[0]), b[1:]
	var err error
	if su.TraceID, b, err = decodeString(b); err != nil {
		return su, nil, errMalformed
	}
	if su.ParentSpan, b, err = decodeString(b); err != nil {
		return su, nil, errMalformed
	}
	if su.TemplateID, su.Group, su.Params, b, err = decodeStatement(b); err != nil {
		return su, nil, errMalformed
	}
	if su.Opaque, b, err = decodeOpaque(b); err != nil {
		return su, nil, errMalformed
	}
	return su, b, nil
}

// Result tags of the sealed-result grammar.
const (
	resultNone   = 0
	resultCipher = 1
	resultPlain  = 2
)

// AppendSealedResult appends sr to dst. A view-exposure plaintext result
// is staged in pooled scratch so its length can lead it.
func AppendSealedResult(dst []byte, sr *SealedResult) []byte {
	switch {
	case sr.Cipher != nil:
		return appendBytes(append(dst, resultCipher), sr.Cipher)
	case sr.Result != nil:
		eb := getBuf()
		eb.b = appendResult(eb.b[:0], sr.Result)
		dst = appendBytes(append(dst, resultPlain), eb.b)
		putBuf(eb)
		return dst
	default:
		return append(dst, resultNone)
	}
}

// DecodeSealedResult consumes one sealed result.
func DecodeSealedResult(b []byte) (SealedResult, []byte, error) {
	var sr SealedResult
	if len(b) == 0 {
		return sr, nil, errMalformed
	}
	tag, b := b[0], b[1:]
	switch tag {
	case resultNone:
	case resultCipher:
		var err error
		if sr.Cipher, b, err = decodeBytes(b); err != nil {
			return sr, nil, errMalformed
		}
	case resultPlain:
		n, rest, err := Uvarint(b)
		if err != nil || n > uint64(len(rest)) {
			return sr, nil, errMalformed
		}
		if sr.Result, err = decodeResult(rest[:n]); err != nil {
			return sr, nil, errMalformed
		}
		b = rest[n:]
	default:
		return sr, nil, errMalformed
	}
	return sr, b, nil
}

// appendStatement appends the part queries and updates share: the exposed
// template identity, the routing group, and the exposed parameters.
func appendStatement(dst []byte, templateID string, group int, params []sqlparse.Value) []byte {
	dst = appendString(dst, templateID)
	dst = binary.AppendUvarint(dst, uint64(group))
	dst = binary.AppendUvarint(dst, uint64(len(params)))
	return appendParams(dst, params)
}

func decodeStatement(b []byte) (templateID string, group int, params []sqlparse.Value, rest []byte, err error) {
	if templateID, b, err = decodeString(b); err != nil {
		return "", 0, nil, nil, errMalformed
	}
	g, b, err := Uvarint(b)
	if err != nil || g > math.MaxInt32 {
		return "", 0, nil, nil, errMalformed
	}
	n, b, err := decodeCount(b)
	if err != nil {
		return "", 0, nil, nil, errMalformed
	}
	if n > 0 {
		params = make([]sqlparse.Value, n)
		for i := range params {
			if params[i], b, err = decodeValue(b); err != nil {
				return "", 0, nil, nil, errMalformed
			}
		}
	}
	return templateID, int(g), params, b, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, p []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	return append(dst, p...)
}

// decodeBytes consumes one length-prefixed byte string into a fresh
// slice, non-nil even when empty.
func decodeBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := Uvarint(b)
	if err != nil || n > uint64(len(rest)) {
		return nil, nil, errMalformed
	}
	out := make([]byte, n)
	copy(out, rest)
	return out, rest[n:], nil
}

// decodeOpaque is decodeBytes for the statement payload, whose empty
// encoding means absent.
func decodeOpaque(b []byte) ([]byte, []byte, error) {
	opaque, rest, err := decodeBytes(b)
	if len(opaque) == 0 {
		opaque = nil
	}
	return opaque, rest, err
}
