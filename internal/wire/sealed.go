package wire

import (
	"bytes"
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
	f, rest, err := decodeSealed(b, trace, true)
	return SealedQuery{
		Exposure: f.exposure, TraceID: f.traceID, ParentSpan: f.parentSpan,
		TemplateID: f.templateID, Group: f.group, Params: f.params, Key: f.key, Opaque: f.opaque,
	}, rest, err
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
	f, rest, err := decodeSealed(b, WithTrace, false)
	return SealedUpdate{
		Exposure: f.exposure, TraceID: f.traceID, ParentSpan: f.parentSpan,
		TemplateID: f.templateID, Group: f.group, Params: f.params, Opaque: f.opaque,
	}, rest, err
}

// sealedFields is what a sealed query or update decodes to; an update has
// no key.
type sealedFields struct {
	exposure                             template.Exposure
	traceID, parentSpan, templateID, key string
	group                                int
	params                               []sqlparse.Value
	opaque                               []byte
}

// measureSealed is pass one of decodeSealed: it checks the front of b
// against the statement grammar — minimal uvarints, every length and the
// parameter count bounded by the input left, the group within an int32 —
// and reports the parameter count, the offset at which the opaque field
// starts (everything before it is the part the strings lie in) and the
// offset at which the message ends.
func measureSealed(b []byte, trace, key bool) (nparams, head, end int, err error) {
	total := len(b)
	if total == 0 {
		return 0, 0, 0, errMalformed
	}
	b = b[1:] // exposure
	lead := 1 // templateID
	if trace {
		lead = 3 // traceID, parentSpan, templateID
	}
	for i := 0; i < lead; i++ {
		if _, b, err = splitString(b); err != nil {
			return 0, 0, 0, errMalformed
		}
	}
	g, b, err := Uvarint(b)
	if err != nil || g > math.MaxInt32 {
		return 0, 0, 0, errMalformed
	}
	if nparams, b, err = decodeCount(b); err != nil {
		return 0, 0, 0, errMalformed
	}
	for i := 0; i < nparams; i++ {
		if _, _, b, err = splitValue(b); err != nil {
			return 0, 0, 0, errMalformed
		}
	}
	if key {
		if _, b, err = splitString(b); err != nil {
			return 0, 0, 0, errMalformed
		}
	}
	head = total - len(b)
	if _, b, err = splitString(b); err != nil {
		return 0, 0, 0, errMalformed
	}
	return nparams, head, total - len(b), nil
}

// decodeSealed decodes a sealed statement in two passes, the way
// decodeResult does, so that a message costs three allocations whatever it
// carries: measureSealed validates and finds the extents, then every string
// — trace metadata, template ID, key, string parameters — is a substring of
// one copy of the bytes before the opaque field, the parameters are one
// slice and the opaque payload one more copy. Nothing returned aliases b;
// the strings of one message do share their copy, so holding one (a cache
// entry holds its query's key) holds them all, trace metadata included.
func decodeSealed(b []byte, trace, key bool) (f sealedFields, rest []byte, err error) {
	nparams, head, end, err := measureSealed(b, trace, key)
	if err != nil {
		return f, nil, err
	}
	// Pass two reads what pass one accepted: no step below can fail.
	arena := string(b[:head])
	b, rest = b[:end], b[end:]
	// copyOf maps str, which ends where after begins in b, to its copy.
	copyOf := func(str, after []byte) string {
		e := end - len(after)
		return arena[e-len(str) : e]
	}
	f.exposure, b = template.Exposure(b[0]), b[1:]
	var str []byte
	if trace {
		str, b, _ = splitString(b)
		f.traceID = copyOf(str, b)
		str, b, _ = splitString(b)
		f.parentSpan = copyOf(str, b)
	}
	str, b, _ = splitString(b)
	f.templateID = copyOf(str, b)
	g, b, _ := Uvarint(b)
	f.group = int(g)
	_, b, _ = decodeCount(b)
	if nparams > 0 {
		f.params = make([]sqlparse.Value, nparams)
		for i := range f.params {
			if f.params[i], str, b, _ = splitValue(b); f.params[i].Kind == sqlparse.KindString {
				f.params[i].Str = copyOf(str, b)
			}
		}
	}
	if key {
		str, b, _ = splitString(b)
		f.key = copyOf(str, b)
	}
	if str, _, _ = splitString(b); len(str) > 0 {
		f.opaque = bytes.Clone(str)
	}
	return f, rest, nil
}

// Raw is a sealed statement, in its WithTrace form, kept as the bytes it
// arrived in: what a router forwards without decoding it. Its Head is
// copied out — the strings in one allocation, so they may be kept — but
// Opaque, and the message Append copies from, alias the input: a Raw is
// valid only as long as the buffer it was read from.
type Raw struct {
	Head
	msg          []byte
	parent, rest int // the parent span field, length included, is msg[parent:rest]
}

// ReadQuery reads into r the one sealed query b holds, in place. It
// accepts exactly what DecodeSealedQuery(b, WithTrace) accepts with no
// bytes left.
func (r *Raw) ReadQuery(b []byte) error { return r.read(b, true) }

// ReadUpdate reads into r the one sealed update b holds, in place. It
// accepts exactly what DecodeSealedUpdate accepts with no bytes left.
func (r *Raw) ReadUpdate(b []byte) error { return r.read(b, false) }

// read fills r in place rather than returning a Raw: a router reads a
// statement deep in a goroutine per frame, whose stack a copy of Raw in
// every frame on the way would grow.
func (r *Raw) read(b []byte, key bool) error {
	*r = Raw{}
	_, head, end, err := measureSealed(b, WithTrace, key)
	if err != nil {
		return err
	}
	if end != len(b) {
		return errMalformed
	}
	// What measureSealed accepted: no step below can fail.
	arena := string(b[:head])
	copyOf := func(str, after []byte) string {
		e := end - len(after)
		return arena[e-len(str) : e]
	}
	r.msg = b
	var str []byte
	p := b[1:]
	str, p, _ = splitString(p)
	r.TraceID, r.parent = copyOf(str, p), end-len(p)
	str, p, _ = splitString(p)
	r.ParentSpan, r.rest = copyOf(str, p), end-len(p)
	str, p, _ = splitString(p)
	r.TemplateID = copyOf(str, p)
	_, p, _ = Uvarint(p)
	n, p, _ := decodeCount(p)
	for i := 0; i < n; i++ {
		_, _, p, _ = splitValue(p)
	}
	if key {
		str, p, _ = splitString(p)
		r.Key = copyOf(str, p)
	}
	r.Opaque, _, _ = splitString(p)
	return nil
}

// Append appends the statement to dst as it arrived, but with parentSpan
// in its parent span field; an empty parentSpan leaves the field as it was.
func (r *Raw) Append(dst, parentSpan []byte) []byte {
	if len(parentSpan) == 0 {
		return append(dst, r.msg...)
	}
	dst = append(dst, r.msg[:r.parent]...)
	dst = binary.AppendUvarint(dst, uint64(len(parentSpan)))
	dst = append(dst, parentSpan...)
	return append(dst, r.msg[r.rest:]...)
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
