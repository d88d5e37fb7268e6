package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"unsafe"

	"dssp/internal/engine"
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
// bytes. Two kinds of reader share the one walk of each grammar. A Decode
// function returns what the caller may keep: nothing it returns aliases b,
// so b may be a pooled buffer. A Read function (ReadSealedQuery,
// ReadSealedUpdate, ReadQueryPayload, Raw.ReadQuery, ReadSealedResult)
// lends: the payload, the cipher, a view result's encoding and a
// statement's key and parameters alias b, and are valid only as long as b
// is — what a hop reads once and forwards or opens before its buffer goes
// back to the pool. A Read function copies only a template ID its table
// does not hold; whoever keeps a lent string past the hop copies it — a
// node's miss the key, the parameters and the payload into its pooled call
// (SealedQuery.KeepIn), a node's cache entry the key and the parameters
// once more, into the entry (KeepEntry), a node's update call the
// parameters and the payload (SealedUpdate.KeepIn), a router's blind-key
// cache a key. The Decode functions are the same walk followed by a copy.
// An absent and an empty Params (or Opaque) share an encoding and decode
// as nil; a nil Cipher is "no result", an empty one is a sealed result of
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
	dst = appendStatement(dst, sq.TemplateID, sq.Group, sq.Params, sq.params)
	dst = appendString(dst, sq.Key)
	return appendBytes(dst, sq.Opaque)
}

// DecodeSealedQuery consumes one sealed query of the given form.
func DecodeSealedQuery(b []byte, trace bool) (SealedQuery, []byte, error) {
	s, err := walk(b, trace, true)
	if err != nil {
		return SealedQuery{}, nil, err
	}
	sq := s.query(string(s.head(b)))
	sq.Params, sq.params = decodeParams(sq.params), ""
	sq.Opaque = cloneOpaque(sq.Opaque)
	return sq, b[s.end:], nil
}

// AppendSealedUpdate appends su to dst.
func AppendSealedUpdate(dst []byte, su *SealedUpdate) []byte {
	dst = append(dst, byte(su.Exposure))
	dst = appendTrace(dst, su.TraceID, su.ParentSpan)
	dst = appendStatement(dst, su.TemplateID, su.Group, su.Params, su.params)
	return appendBytes(dst, su.Opaque)
}

// ReadSealedQuery reads the one sealed query b holds, in its WithTrace
// form, in place, as a node serves it. It accepts exactly what
// DecodeSealedQuery(b, WithTrace) accepts with no bytes left. The template
// ID is interned against ids, as Raw.ReadQuery's is, and copied only when
// ids does not hold it; the key, the parameters, left encoded, and the
// payload are lent: they lie in b, and are valid only as long as b is. A
// hit reads the key alone, and only a miss, which keeps its statement,
// copies the key, the parameters and the payload into its pooled call
// (KeepIn) and decodes the parameters there. So a query of a template in
// ids costs nothing to read.
func ReadSealedQuery(b []byte, ids map[string]string) (SealedQuery, error) {
	sq, rest, err := readSealedQueryFrom(b, WithTrace, ids)
	if err == nil && len(rest) != 0 {
		return SealedQuery{}, errMalformed
	}
	return sq, err
}

// readSealedQueryFrom is ReadSealedQuery of the sealed query of the given
// form at the front of b, which it returns with the bytes after it: how a
// node reads each entry of a bucket import in place.
func readSealedQueryFrom(b []byte, trace bool, ids map[string]string) (SealedQuery, []byte, error) {
	s, err := walk(b, trace, true)
	if err != nil {
		return SealedQuery{}, nil, err
	}
	sq := s.query(lend(s.head(b)))
	sq.TemplateID = intern(b[s.templateID.at:s.templateID.end], ids)
	sq.lent = true
	return sq, b[s.end:], nil
}

// ReadSealedUpdate reads the one sealed update b holds in place, as a node
// serves an update or an invalidation and a home executes one, as
// ReadSealedQuery reads a query. It accepts exactly one sealed update, in
// its WithTrace form, with no bytes left. The template ID is
// interned against ids, and copied only when ids does not hold it; the
// parameters, left encoded, and the payload are lent: they lie in b, and
// are valid only as long as b is. Only the update's one keeper past its
// call, the pipeline's update call, copies and decodes them (KeepIn). So
// an update of a template in ids costs nothing to read.
func ReadSealedUpdate(b []byte, ids map[string]string) (SealedUpdate, error) {
	su, rest, err := ReadSealedUpdateFrom(b, ids)
	if err == nil && len(rest) != 0 {
		return SealedUpdate{}, errMalformed
	}
	return su, err
}

// ReadSealedUpdateFrom is ReadSealedUpdate of the sealed update at the
// front of b, which it returns with the bytes after it, as
// DecodeSealedQuery consumes a query: how a replica reads each update of
// an apply batch in place. The payload is capped at its own end, so appending
// to it never writes into what follows.
func ReadSealedUpdateFrom(b []byte, ids map[string]string) (SealedUpdate, []byte, error) {
	s, err := walk(b, WithTrace, false)
	if err != nil {
		return SealedUpdate{}, nil, err
	}
	return SealedUpdate{
		Exposure: s.exposure, TraceID: s.traceID, ParentSpan: s.parentSpan,
		TemplateID: intern(b[s.templateID.at:s.templateID.end], ids), Group: s.group,
		Opaque: s.opaque[:len(s.opaque):len(s.opaque)], params: lend(b[s.params.at:s.params.end]), lent: true,
	}, b[s.end:], nil
}

// UpdateBuf is the memory a lent update is copied into (KeepIn): its
// parameters, their strings and its payload, each reused from the update
// copied in last. Its holder copies the next update into it only once it
// is done with the last. The zero value is ready to use.
type UpdateBuf struct {
	params []sqlparse.Value
	strs   []byte
	opaque []byte
}

// KeepIn makes su its holder's for as long as buf is not reused: a lent
// update's parameters — decoded, if they are still encoded — their
// strings and its payload are copied into buf, and su reads them there.
// An update that is not lent is left as it is, so nothing is copied
// twice. The template ID is never lent: it is the application's, interned,
// or a copy. So an update kept in warm memory allocates nothing.
func (su *SealedUpdate) KeepIn(buf *UpdateBuf) {
	if !su.lent {
		return
	}
	buf.strs = buf.strs[:0]
	su.Params = keepParams(su.Params, su.params, &buf.params, &buf.strs)
	if su.Opaque != nil {
		buf.opaque = append(buf.opaque[:0], su.Opaque...)
		su.Opaque = buf.opaque
	}
	su.params, su.lent = "", false
}

// QueryBuf is the memory a lent query is copied into (KeepIn): its key,
// its parameters, their strings and its payload, each reused from the
// query copied in last, as an UpdateBuf is. The zero value is ready to
// use.
type QueryBuf struct {
	params []sqlparse.Value
	strs   []byte // the key, then the parameters' strings
	opaque []byte
}

// KeepIn makes sq its holder's for as long as buf is not reused, as
// SealedUpdate.KeepIn does an update: a lent query's key, its parameters
// — decoded, if they are still encoded — their strings and its payload
// are copied into buf, and sq reads them there. A query that is not lent
// is left as it is: its parameters are decoded already, and nothing is
// copied twice. So a query kept in warm memory allocates nothing — the
// pipeline's miss keeps its query so (pipeline.Front), and the one copy
// a cache entry makes of it past the miss is the entry's (KeepEntry).
func (sq *SealedQuery) KeepIn(buf *QueryBuf) {
	if !sq.lent {
		return
	}
	buf.strs = append(buf.strs[:0], sq.Key...)
	sq.Params = keepParams(sq.Params, sq.params, &buf.params, &buf.strs)
	sq.Key = lend(buf.strs[:len(sq.Key)]) // after every append: they may move buf.strs
	if sq.Opaque != nil {
		buf.opaque = append(buf.opaque[:0], sq.Opaque...)
		sq.Opaque = buf.opaque
	}
	sq.params, sq.lent = "", false
}

// keepParams copies a statement's parameters — decoded, or still encoded
// as encoded holds them — to the end of *strs, their strings lent from
// there, and into (*vals)[:0], and returns them: nil when there are none.
func keepParams(params []sqlparse.Value, encoded string, vals *[]sqlparse.Value, strs *[]byte) []sqlparse.Value {
	at := len(*strs)
	if encoded != "" {
		*strs = append(*strs, encoded...)
		*vals = readEncodedParams((*vals)[:0], lend((*strs)[at:]))
	} else {
		for _, v := range params {
			*strs = append(*strs, v.Str...)
		}
		kept := lend((*strs)[at:])
		*vals = append((*vals)[:0], params...)
		for i := range *vals {
			n := len((*vals)[i].Str)
			(*vals)[i].Str, kept = kept[:n], kept[n:]
		}
	}
	if len(*vals) == 0 {
		return nil
	}
	return *vals
}

// Own returns a copy of su its holder may keep whatever becomes of the
// memory su lies in, lent or not: a sink that keeps a confirmed update the
// home lent it for the call (homeserver.Confirmed) owns it so.
func (su SealedUpdate) Own() SealedUpdate {
	su.lent = true
	su.KeepIn(new(UpdateBuf))
	return su
}

// ReadQueryPayload reads the one sealed query b holds, in its WithTrace
// form, as far as a home executes it: the trace fields, which are numbers,
// and the payload, lent from b. It allocates nothing, and accepts exactly
// what ReadSealedQuery accepts.
func ReadQueryPayload(b []byte) (SealedQuery, error) {
	s, err := walkWhole(b, true)
	return SealedQuery{TraceID: s.traceID, ParentSpan: s.parentSpan, Opaque: s.opaque}, err
}

// lend returns b's bytes as a string without copying them: one of the two
// places the package makes a string of bytes without a copy, and the one
// whose bytes are not its own to freeze (the other is freeze). The string
// reads whatever b holds, so it is valid only until b is written again —
// for the call a query is lent for, after which its sender reuses b. Every
// holder that keeps a lent string past that call copies it: the
// pipeline's miss (SealedQuery.KeepIn), a cache entry (KeepEntry), and
// shard.BlindCache and leakage.Observer, which keep a key without its
// query.
func lend(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// freeze returns b's bytes as a string without copying them, for bytes
// that are never written again: those an opened result's strings were
// just copied into, in the box its ResultBox supplied (decodeResultInto),
// and those a cache entry's key and strings were copied into, in the box
// the cache sized to it (KeepEntry) — each the result's or the entry's
// for good, and never reused. It is the package's other string made
// without a copy, beside lend.
func freeze(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// intern returns the string ids maps tid to — a lookup that allocates
// nothing — or a copy of tid when ids does not hold it.
func intern(tid []byte, ids map[string]string) string {
	if id, ok := ids[string(tid)]; ok {
		return id
	}
	return string(tid)
}

// Raw is a sealed statement, in its WithTrace form, kept as the bytes it
// arrived in: what a router forwards without decoding it. Its Head holds
// what the router routes and traces by, and nothing that aliases the
// input but the payload: the IDs are numbers, the template ID is interned
// or copied, and a key is copied only for a blind query. Opaque, and the
// message Append copies from, alias the input: a Raw is valid only as long
// as the buffer it was read from.
type Raw struct {
	Head
	msg []byte
}

// ReadQuery reads into r the one sealed query b holds, in place. It
// accepts exactly what DecodeSealedQuery(b, WithTrace) accepts with no
// bytes left. The template ID is the string ids maps it to — a lookup that
// allocates nothing — and a copy only when ids does not hold it; the key
// is copied when the template ID is empty, since only blind routing reads
// it, and left empty otherwise. So a query of a template in ids costs
// nothing to read.
func (r *Raw) ReadQuery(b []byte, ids map[string]string) error { return r.read(b, true, ids) }

// ReadUpdate reads into r the one sealed update b holds, in place, as
// ReadQuery does a query. It accepts exactly what ReadSealedUpdate
// accepts.
func (r *Raw) ReadUpdate(b []byte, ids map[string]string) error { return r.read(b, false, ids) }

// read fills r in place rather than returning a Raw: a router reads a
// statement deep in a frame handler's call chain, whose stack a copy of Raw
// in every frame on the way would grow.
func (r *Raw) read(b []byte, key bool, ids map[string]string) error {
	*r = Raw{}
	s, err := walkWhole(b, key)
	if err != nil {
		return err
	}
	id := intern(b[s.templateID.at:s.templateID.end], ids)
	r.Head = Head{TraceID: s.traceID, ParentSpan: s.parentSpan, TemplateID: id, Opaque: s.opaque}
	if key && id == "" {
		r.Key = lend(b[s.key.at:s.key.end])
	}
	r.msg = b
	return nil
}

// statement is where walk found each field of one sealed statement in its
// input: the numbers it read, the places of the strings and the encoded
// parameters, and the payload, which lies in the input.
type statement struct {
	exposure   template.Exposure
	traceID    obs.TraceID
	parentSpan obs.SpanID
	group      int
	templateID field
	params     field // uvarint(nparams) value*
	key        field // empty, where the parameters end, for an update
	opaque     []byte
	end        int // the offset at which the statement ends
}

// field is the bytes of a statement's input from offset at to end.
type field struct{ at, end int }

// walk is the one pass over the grammar: it checks the sealed statement
// of the given form at the front of b — minimal uvarints, every length and
// the parameter count bounded by the input left, the group within an
// int32 — and returns where its fields lie. It copies nothing: each reader
// copies what its caller keeps, and nothing else.
func walk(b []byte, trace, key bool) (s statement, err error) {
	if len(b) == 0 {
		return statement{}, errMalformed
	}
	p := b[1:] // exposure
	at := func() int { return len(b) - len(p) }
	if trace {
		if len(p) < 2*idLen {
			return statement{}, errMalformed
		}
		s.traceID.Proc, s.traceID.Seq = readID(p)
		s.parentSpan.Proc, s.parentSpan.Seq = readID(p[idLen:])
		p = p[2*idLen:]
	}
	// Each string is found by its bytes and the offset at which it ends.
	var str []byte
	if str, p, err = splitString(p); err != nil {
		return statement{}, errMalformed
	}
	s.templateID = field{at() - len(str), at()}
	g, p, err := Uvarint(p)
	if err != nil || g > math.MaxInt32 {
		return statement{}, errMalformed
	}
	s.params.at = at()
	nparams, p, err := decodeCount(p)
	if err != nil {
		return statement{}, errMalformed
	}
	for i := 0; i < nparams; i++ {
		if _, _, p, err = splitValue(p); err != nil {
			return statement{}, errMalformed
		}
	}
	s.params.end = at()
	s.key = field{s.params.end, s.params.end}
	if key {
		if str, p, err = splitString(p); err != nil {
			return statement{}, errMalformed
		}
		s.key = field{at() - len(str), at()}
	}
	if s.opaque, p, err = splitString(p); err != nil {
		return statement{}, errMalformed
	}
	s.exposure, s.group, s.end = template.Exposure(b[0]), int(g), at()
	return s, nil
}

// walkWhole is walk of a WithTrace statement that must be the whole of b:
// a frame's body.
func walkWhole(b []byte, key bool) (statement, error) {
	s, err := walk(b, WithTrace, key)
	if err == nil && s.end != len(b) {
		return statement{}, errMalformed
	}
	return s, err
}

// head is the bytes of b from the statement's template ID to the end of
// its key: the strings a query keeps, and its parameters, still encoded.
func (s *statement) head(b []byte) []byte { return b[s.templateID.at:s.key.end] }

// query returns the statement walk found as a query whose strings, and
// whose parameters still encoded, are substrings of head — s.head of the
// input, copied or lent — so the strings of one statement share it, and
// holding one (a cache entry holds its query's key) holds them all. Its
// payload lies in the input.
func (s *statement) query(head string) SealedQuery {
	from := s.templateID.at
	in := func(f field) string { return head[f.at-from : f.end-from] }
	return SealedQuery{
		Exposure: s.exposure, TraceID: s.traceID, ParentSpan: s.parentSpan, TemplateID: in(s.templateID),
		Group: s.group, Key: in(s.key), Opaque: s.opaque, params: in(s.params),
	}
}

// decodeParams decodes parameters walk accepted, encoded as
// uvarint(nparams) value*: one slice, whose string values are substrings
// of params; nil when there are none.
func decodeParams(params string) []sqlparse.Value {
	n, _, _ := decodeCount(params)
	if n == 0 {
		return nil
	}
	return readEncodedParams(make([]sqlparse.Value, 0, n), params)
}

// readEncodedParams appends to dst the parameters walk accepted, as
// decodeParams decodes them.
func readEncodedParams(dst []sqlparse.Value, params string) []sqlparse.Value {
	n, p, _ := decodeCount(params)
	for ; n > 0; n-- {
		var v sqlparse.Value
		var str string
		v, str, p, _ = splitValue(p)
		v.Str = str // empty but for a string
		dst = append(dst, v)
	}
	return dst
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
// is staged in pooled scratch so its length can lead it; a lent one is its
// encoding already.
func AppendSealedResult(dst []byte, sr *SealedResult) []byte {
	switch {
	case sr.Cipher != nil:
		return appendBytes(append(dst, resultCipher), sr.Cipher)
	case sr.view != nil:
		return appendBytes(append(dst, resultPlain), sr.view)
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

// ReadSealedResult reads one sealed result in place and lends it: a
// cipher aliases b, and a view-exposure result is checked against the
// result grammar but left as its encoding in b, which Codec.OpenResultInto
// decodes straight into the caller's box and a node's cache into its
// entry (KeepEntry). What it returns is valid only as long as b; Own
// copies it out.
func ReadSealedResult(b []byte) (SealedResult, []byte, error) {
	if len(b) == 0 {
		return SealedResult{}, nil, errMalformed
	}
	tag, b := b[0], b[1:]
	if tag == resultNone {
		return SealedResult{}, b, nil
	}
	body, rest, err := splitString(b)
	switch {
	case err != nil:
		return SealedResult{}, nil, errMalformed
	case tag == resultCipher:
		return SealedResult{Cipher: body}, rest, nil
	case tag == resultPlain:
		if _, err := measureResult(body); err != nil {
			return SealedResult{}, nil, errMalformed
		}
		return SealedResult{view: body}, rest, nil
	default:
		return SealedResult{}, nil, errMalformed
	}
}

// Own returns a copy of sr its holder may keep whatever becomes of the
// memory sr lies in: the cipher copied, a lent view result decoded, and a
// view result by pointer copied — the home lends its result so
// (Codec.LendResult) — but for its strings, which are immutable
// (engine.Result), and its column names, which are shared.
func (sr SealedResult) Own() SealedResult {
	switch {
	case sr.view != nil:
		res := new(engine.Result)
		_ = decodeResultInto(sr.view, res, nil, nil) // ReadSealedResult checked it
		return SealedResult{Result: res}
	case sr.Cipher != nil:
		return SealedResult{Cipher: bytes.Clone(sr.Cipher)}
	case sr.Result != nil:
		res := new(engine.Result)
		sr.Result.CloneInto(res, sr.Result.Columns, make([]sqlparse.Value, len(sr.Result.Vals)))
		return SealedResult{Result: res}
	default:
		return sr
	}
}

// Rows returns the rows of a result in the clear, by pointer or lent as
// its encoding, and -1 for a cipher or no result, whose cardinality the
// DSSP cannot see.
func (sr SealedResult) Rows() int {
	switch {
	case sr.Result != nil:
		return sr.Result.Len()
	case sr.view != nil:
		sh, _ := measureResult(sr.view) // ReadSealedResult checked it
		return sh.nrows
	default:
		return -1
	}
}

// appendStatement appends the part queries and updates share: the exposed
// template identity, the routing group, and the exposed parameters — as
// encoded, when a statement read in place still carries them so.
func appendStatement(dst []byte, templateID string, group int, params []sqlparse.Value, encoded string) []byte {
	dst = appendString(dst, templateID)
	dst = binary.AppendUvarint(dst, uint64(group))
	if encoded != "" {
		return append(dst, encoded...)
	}
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
