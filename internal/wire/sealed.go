package wire

import (
	"bytes"
	"encoding/binary"
	"math"

	"dssp/internal/obs"
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
//	trace  = id(traceID) id(parentSpan)
//	id     = u32(process) u64(sequence)  (big-endian; all zero: none)
//	result = 0x00                      (none)
//	       | 0x01 str(cipher)          (sealed result)
//	       | 0x02 str(result-encoding) (view-exposure plaintext)
//	str    = uvarint(len) bytes
//
// A query crossing a process boundary carries its trace metadata
// (WithTrace); a cache entry in flight between nodes does not (NoTrace) —
// TraceID/ParentSpan are per-request observability, and the migration
// stream's bytes predate and omit them. Updates only ever travel as
// requests, so they have the one form. The trace fields are numbers of a
// fixed width (obs.TraceID, obs.SpanID), so they sit at a fixed offset
// and a router rewrites the parent span in place (Raw.Append).
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

// idLen is the width of one id field; parentAt is the offset of the parent
// span in a statement's WithTrace form.
const (
	idLen    = 4 + 8
	parentAt = 1 + idLen
)

// AppendSealedQuery appends sq to dst; trace selects the form.
func AppendSealedQuery(dst []byte, sq *SealedQuery, trace bool) []byte {
	dst = append(dst, byte(sq.Exposure))
	if trace {
		dst = appendTrace(dst, sq.TraceID, sq.ParentSpan)
	}
	dst = appendStatement(dst, sq.TemplateID, sq.Group, sq.Params)
	dst = appendString(dst, sq.Key)
	return appendBytes(dst, sq.Opaque)
}

// DecodeSealedQuery consumes one sealed query of the given form.
func DecodeSealedQuery(b []byte, trace bool) (SealedQuery, []byte, error) {
	var r Raw
	end, err := r.walk(b, trace, true)
	if err != nil {
		return SealedQuery{}, nil, err
	}
	return SealedQuery{
		Exposure: r.exposure, TraceID: r.TraceID, ParentSpan: r.ParentSpan, TemplateID: r.TemplateID,
		Group: r.group, Params: r.decodeParams(), Key: r.Key, Opaque: cloneOpaque(r.Opaque),
	}, b[end:], nil
}

// AppendSealedUpdate appends su to dst.
func AppendSealedUpdate(dst []byte, su *SealedUpdate) []byte {
	dst = append(dst, byte(su.Exposure))
	dst = appendTrace(dst, su.TraceID, su.ParentSpan)
	dst = appendStatement(dst, su.TemplateID, su.Group, su.Params)
	return appendBytes(dst, su.Opaque)
}

// DecodeSealedUpdate consumes one sealed update.
func DecodeSealedUpdate(b []byte) (SealedUpdate, []byte, error) {
	var r Raw
	end, err := r.walk(b, WithTrace, false)
	if err != nil {
		return SealedUpdate{}, nil, err
	}
	return SealedUpdate{
		Exposure: r.exposure, TraceID: r.TraceID, ParentSpan: r.ParentSpan, TemplateID: r.TemplateID,
		Group: r.group, Params: r.decodeParams(), Opaque: cloneOpaque(r.Opaque),
	}, b[end:], nil
}

// Raw is a sealed statement, in its WithTrace form, kept as the bytes it
// arrived in: what a router forwards without decoding it. Its Head is
// copied out — the IDs are numbers, the strings in one allocation, so they
// may be kept — but Opaque, and the message Append copies from, alias the
// input: a Raw is valid only as long as the buffer it was read from.
//
// Reading a Raw is also the first step of decoding a statement: the
// decoders add the parameters and a copy of the payload to it.
type Raw struct {
	Head
	msg []byte

	exposure template.Exposure
	group    int
	arena    string // the copy the head's strings lie in: msg up to the opaque field
	nparams  int
	params   int // the offset in msg at which the parameters start
}

// ReadQuery reads into r the one sealed query b holds, in place. It
// accepts exactly what DecodeSealedQuery(b, WithTrace) accepts with no
// bytes left.
func (r *Raw) ReadQuery(b []byte) error { return r.read(b, true) }

// ReadUpdate reads into r the one sealed update b holds, in place. It
// accepts exactly what DecodeSealedUpdate accepts with no bytes left.
func (r *Raw) ReadUpdate(b []byte) error { return r.read(b, false) }

// read fills r in place rather than returning a Raw: a router reads a
// statement deep in a frame handler's call chain, whose stack a copy of Raw
// in every frame on the way would grow.
func (r *Raw) read(b []byte, key bool) error {
	end, err := r.walk(b, WithTrace, key)
	if err == nil && end != len(b) {
		*r = Raw{}
		err = errMalformed
	}
	return err
}

// walk is the one pass over the grammar: it checks the sealed statement
// of the given form at the front of b — minimal uvarints, every length and
// the parameter count bounded by the input left, the group within an
// int32 — and returns the offset at which it ends. The trace IDs are read
// as the numbers they are. Only an accepted statement fills r, at the cost
// of one allocation: the head's strings are substrings of one copy of the
// bytes before the opaque field, and the parameters are left where they
// lie, for decodeParams. So a decoded
// statement costs three allocations whatever it carries — that copy, the
// parameter slice and the payload's copy — and the strings of one
// statement share their copy: holding one (a cache entry holds its query's
// key) holds them all.
func (r *Raw) walk(b []byte, trace, key bool) (end int, err error) {
	*r = Raw{}
	if len(b) == 0 {
		return 0, errMalformed
	}
	p := b[1:] // exposure
	at := func() int { return len(b) - len(p) }
	var traceID obs.TraceID
	var parentSpan obs.SpanID
	if trace {
		if len(p) < 2*idLen {
			return 0, errMalformed
		}
		traceID.Proc, traceID.Seq = readID(p)
		parentSpan.Proc, parentSpan.Seq = readID(p[idLen:])
		p = p[2*idLen:]
	}
	// Each string is found by its bytes and the offset at which it ends.
	var templateID, keyStr []byte
	if templateID, p, err = splitString(p); err != nil {
		return 0, errMalformed
	}
	templateEnd := at()
	g, p, err := Uvarint(p)
	if err != nil || g > math.MaxInt32 {
		return 0, errMalformed
	}
	nparams, p, err := decodeCount(p)
	if err != nil {
		return 0, errMalformed
	}
	params := at()
	for i := 0; i < nparams; i++ {
		if _, _, p, err = splitValue(p); err != nil {
			return 0, errMalformed
		}
	}
	if key {
		if keyStr, p, err = splitString(p); err != nil {
			return 0, errMalformed
		}
	}
	head := at()
	opaque, p, err := splitString(p)
	if err != nil {
		return 0, errMalformed
	}
	end = at()

	arena := string(b[:head])
	copyOf := func(str []byte, end int) string { return arena[end-len(str) : end] }
	*r = Raw{
		Head: Head{
			TraceID: traceID, ParentSpan: parentSpan,
			TemplateID: copyOf(templateID, templateEnd), Key: copyOf(keyStr, head), Opaque: opaque,
		},
		msg:      b[:end],
		exposure: template.Exposure(b[0]), group: int(g), arena: arena, nparams: nparams, params: params,
	}
	return end, nil
}

// decodeParams returns the parameters walk accepted: one slice, whose
// string values are substrings of the head's copy; nil when there are
// none.
func (r *Raw) decodeParams() []sqlparse.Value {
	if r.nparams == 0 {
		return nil
	}
	vs := make([]sqlparse.Value, r.nparams)
	p := r.msg[r.params:]
	for i := range vs {
		var str []byte
		if vs[i], str, p, _ = splitValue(p); vs[i].Kind == sqlparse.KindString {
			e := len(r.msg) - len(p)
			vs[i].Str = r.arena[e-len(str) : e]
		}
	}
	return vs
}

// cloneOpaque copies a statement's payload out of its input; an empty one
// decodes as nil.
func cloneOpaque(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return bytes.Clone(b)
}

// Append appends the statement to dst as it arrived, but with parent in
// its parent span field, overwritten in place; a zero parent leaves the
// field as it was.
func (r *Raw) Append(dst []byte, parent obs.SpanID) []byte {
	at := len(dst) + parentAt
	dst = append(dst, r.msg...)
	if !parent.IsZero() {
		putID(dst[at:], parent.Proc, parent.Seq)
	}
	return dst
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

// appendTrace appends a statement's trace fields.
func appendTrace(dst []byte, trace obs.TraceID, parent obs.SpanID) []byte {
	dst = binary.BigEndian.AppendUint32(dst, trace.Proc)
	dst = binary.BigEndian.AppendUint64(dst, trace.Seq)
	dst = binary.BigEndian.AppendUint32(dst, parent.Proc)
	return binary.BigEndian.AppendUint64(dst, parent.Seq)
}

// readID reads the id field at the front of b, which holds at least idLen
// bytes.
func readID(b []byte) (proc uint32, seq uint64) {
	return binary.BigEndian.Uint32(b), binary.BigEndian.Uint64(b[4:idLen])
}

// putID overwrites the id field at the front of b.
func putID(b []byte, proc uint32, seq uint64) {
	binary.BigEndian.PutUint32(b, proc)
	binary.BigEndian.PutUint64(b[4:idLen], seq)
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
