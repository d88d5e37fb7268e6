package httpapi

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"

	"dssp/internal/homeserver"
	"dssp/internal/pipeline"
	"dssp/internal/wire"
)

// Hop encoding: the body of every frame between processes (frame.go). It
// extends the sealed-message grammar of wire/sealed.go (query, update,
// result — queries in their WithTrace form) and the migration grammar of
// wire/bucket.go (ids, entries). A body carries no tag: the frame's op and
// the way it travels name its grammar, and the header's seq is the one
// place a sequence number rides.
//
//	op             request                   answer                              seq
//	query          query                     result bool(hit)                    —
//	update         update                    count(affected) count(invalidated)  answer seq: the update's confirmed sequence
//	invalidate     update                    count(invalidated)                  request seq: the update's confirmed sequence
//	exec query     query                     result bool(empty) count(scanned)   request seq: the node's freshness floor;
//	                                                                             answer seq: a replica's applied watermark
//	exec update    update                    count(affected)                     answer seq: the update's confirmed sequence
//	replica apply  { uvarint(seq) update }*  (empty)                             answer seq: the replica's applied watermark
//	bucket export  ids                       entries                             —
//	bucket import  entries                   count(taken)                        —
//	bucket drop    ids                       count(dropped)                      —
//
//	bool  = 0x00 | 0x01
//	count = uvarint                          at most 2^31-1
//
// A replica's lag refusal of an exec query carries its applied watermark in
// seq; every seq the table does not name is 0.
//
// Decoding is strict in the way the wire package's is: lengths are checked
// against the remaining input, non-minimal uvarints and trailing bytes are
// rejected, counts that must fit an int are bounded, so every accepted body
// re-encodes to itself — and nothing decoded aliases the input, which is a
// pooled buffer on both sides of a hop.

// Size bounds. Every frame is read whole before its message is decoded, so
// each read is capped, per op and direction (opTable in frame.go):
// maxMessageBytes for one sealed statement, a template-ID list or a count,
// maxBatchBytes for what carries many — a replica apply batch and the
// entries of a bucket import or export. A frame over its bound is answered
// too large.
const (
	maxMessageBytes = 8 << 20
	maxBatchBytes   = 64 << 20
)

var errMalformed = errors.New("httpapi: malformed message")

// The envelopes. Each has appendWire, which appends its body, and
// decodeWire, which accepts exactly one whole body of its grammar. Where a grammar is another package's type, the envelope
// is that type under a name of its own: the sealed statements, the exec
// query answer (whose Applied rides the header), the apply batch and the
// migration grammars.
type (
	queryMsg         wire.SealedQuery
	updateMsg        wire.SealedUpdate
	execQueryMsg     pipeline.ExecQueryResult
	applyMsg         []homeserver.Confirmed
	bucketIDsMsg     []string
	bucketEntriesMsg []wire.BucketEntry
	countMsg         int      // an invalidation's, an exec update's, a bucket import's or drop's answer
	emptyMsg         struct{} // a replica apply's answer
)

// queryAnswer is a node's or router's answer to a sealed query.
type queryAnswer struct {
	result wire.SealedResult
	hit    bool
}

// updateAnswer is a node's or router's answer to a sealed update.
type updateAnswer struct{ affected, invalidated int }

func (m *queryMsg) appendWire(dst []byte) []byte {
	return wire.AppendSealedQuery(dst, (*wire.SealedQuery)(m), wire.WithTrace)
}

func (m *queryMsg) decodeWire(b []byte) error {
	sq, b, err := wire.DecodeSealedQuery(b, wire.WithTrace)
	*m = queryMsg(sq)
	return closeMessage(b, err)
}

func (m *updateMsg) appendWire(dst []byte) []byte {
	return wire.AppendSealedUpdate(dst, (*wire.SealedUpdate)(m))
}

func (m *updateMsg) decodeWire(b []byte) error {
	su, b, err := wire.DecodeSealedUpdate(b)
	*m = updateMsg(su)
	return closeMessage(b, err)
}

func (m *queryAnswer) appendWire(dst []byte) []byte {
	return appendBool(wire.AppendSealedResult(dst, &m.result), m.hit)
}

func (m *queryAnswer) decodeWire(b []byte) (err error) {
	if m.result, b, err = wire.DecodeSealedResult(b); err != nil {
		return err
	}
	m.hit, b, err = decodeBool(b)
	return closeMessage(b, err)
}

func (m *updateAnswer) appendWire(dst []byte) []byte {
	return appendInt(appendInt(dst, m.affected), m.invalidated)
}

func (m *updateAnswer) decodeWire(b []byte) (err error) {
	if m.affected, b, err = decodeInt(b); err != nil {
		return err
	}
	m.invalidated, b, err = decodeInt(b)
	return closeMessage(b, err)
}

func (m *execQueryMsg) appendWire(dst []byte) []byte {
	dst = wire.AppendSealedResult(dst, &m.Result)
	return appendInt(appendBool(dst, m.Empty), m.Scanned)
}

func (m *execQueryMsg) decodeWire(b []byte) (err error) {
	if m.Result, b, err = wire.DecodeSealedResult(b); err != nil {
		return err
	}
	if m.Empty, b, err = decodeBool(b); err != nil {
		return err
	}
	m.Scanned, b, err = decodeInt(b)
	return closeMessage(b, err)
}

// The apply batch is not counted: updates run to the end of the body, so
// there is no count to forge and nothing for decode to pre-allocate.
func (m *applyMsg) appendWire(dst []byte) []byte {
	for i := range *m {
		dst = appendConfirmed(dst, &(*m)[i])
	}
	return dst
}

func appendConfirmed(dst []byte, c *homeserver.Confirmed) []byte {
	return wire.AppendSealedUpdate(binary.AppendUvarint(dst, c.Seq), &c.Update)
}

func (m *applyMsg) decodeWire(b []byte) (err error) {
	*m = nil
	for len(b) > 0 {
		var c homeserver.Confirmed
		if c.Seq, b, err = wire.Uvarint(b); err != nil {
			return err
		}
		if c.Update, b, err = wire.DecodeSealedUpdate(b); err != nil {
			return err
		}
		*m = append(*m, c)
	}
	return nil
}

// Both wire decoders of the migration grammar refuse trailing bytes
// themselves.
func (m *bucketIDsMsg) appendWire(dst []byte) []byte { return wire.AppendTemplateIDs(dst, *m) }

func (m *bucketIDsMsg) decodeWire(b []byte) (err error) {
	*m, err = wire.DecodeTemplateIDs(b)
	return err
}

func (m *bucketEntriesMsg) appendWire(dst []byte) []byte { return wire.AppendBucketEntries(dst, *m) }

func (m *bucketEntriesMsg) decodeWire(b []byte) (err error) {
	*m, err = wire.DecodeBucketEntries(b)
	return err
}

func (m *countMsg) appendWire(dst []byte) []byte { return appendInt(dst, int(*m)) }

func (m *countMsg) decodeWire(b []byte) error {
	n, b, err := decodeInt(b)
	*m = countMsg(n)
	return closeMessage(b, err)
}

func (emptyMsg) appendWire(dst []byte) []byte { return dst }

func (emptyMsg) decodeWire(b []byte) error { return closeMessage(b, nil) }

// closeMessage ends a decode: the last field's error, or trailing bytes.
func closeMessage(rest []byte, err error) error {
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errMalformed
	}
	return nil
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func decodeBool(b []byte) (bool, []byte, error) {
	if len(b) == 0 || b[0] > 1 {
		return false, nil, errMalformed
	}
	return b[0] == 1, b[1:], nil
}

// appendInt appends a count. A negative one (a bug upstream) encodes past
// decodeInt's bound, so it fails loudly at the receiver.
func appendInt(dst []byte, n int) []byte {
	return binary.AppendUvarint(dst, uint64(n))
}

func decodeInt(b []byte) (int, []byte, error) {
	n, rest, err := wire.Uvarint(b)
	if err != nil || n > math.MaxInt32 {
		return 0, nil, errMalformed
	}
	return int(n), rest, nil
}

// wireBuf is pooled staging for one frame: frames are built in it and read
// into it. Nothing may retain b (or a slice of it) past putBuf — decoders
// copy out what they return.
type wireBuf struct{ b []byte }

// maxPooledBuf bounds the capacity a returned buffer may keep: one large
// body must not pin its arena in the pool.
const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{New: func() any { return &wireBuf{b: make([]byte, 0, 1024)} }}

func getBuf() *wireBuf { return bufPool.Get().(*wireBuf) }

func putBuf(wb *wireBuf) {
	if cap(wb.b) <= maxPooledBuf {
		bufPool.Put(wb)
	}
}

var errTooLarge = errors.New("httpapi: message exceeds its size bound")
