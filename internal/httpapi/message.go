package httpapi

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"

	"dssp/internal/homeserver"
	"dssp/internal/wire"
)

// Hop encoding: the body of every frame between processes (frame.go). It
// extends the sealed-message grammar of wire/sealed.go (query, update,
// result — queries in their WithTrace form) and the migration grammar of
// wire/bucket.go (ids, entries) with one kind-tagged envelope per message
// type:
//
//	message = byte(kind) body
//
//	kind  message               body
//	0x01  sealed query          query
//	0x02  sealed update         update
//	0x03  QueryResponse         result bool(hit)
//	0x04  UpdateResponse        uvarint(affected) uvarint(invalidated) uvarint(seq)
//	0x05  InvalidateResponse    uvarint(invalidated)
//	0x06  ExecQueryResponse     result bool(empty) uvarint(scanned)
//	0x07  ExecUpdateResponse    uvarint(affected) uvarint(seq)
//	0x08  ReplicaApplyRequest   { uvarint(seq) update }*
//	0x09  ReplicaApplyResponse  uvarint(applied)
//	0x0a  template-ID list      ids                  bucket export and drop requests
//	0x0b  bucket entries        entries              bucket import request, export answer
//	0x0c  bucket count          uvarint(n)           bucket import and drop answers
//
//	bool  = 0x00 | 0x01
//
// Decoding is strict in the way the wire package's is: lengths are checked
// against the remaining input, non-minimal uvarints, unknown tags and
// trailing bytes are rejected, counts that must fit an int are bounded,
// so every accepted body re-encodes to itself — and nothing decoded
// aliases the input, which is a pooled buffer on both sides of a hop.

// Size bounds. Every frame is read whole before its message is decoded, so
// each read is capped, per op and direction (opBounds in frame.go):
// maxMessageBytes for one sealed statement, a template-ID list or a count,
// maxBatchBytes for what carries many — a replica apply batch and the
// entries of a bucket import or export. A frame over its bound is answered
// too large.
const (
	maxMessageBytes = 8 << 20
	maxBatchBytes   = 64 << 20
)

// Message kinds.
const (
	kindQuery byte = 1 + iota
	kindUpdate
	kindQueryResponse
	kindUpdateResponse
	kindInvalidateResponse
	kindExecQueryResponse
	kindExecUpdateResponse
	kindReplicaApplyRequest
	kindReplicaApplyResponse
	kindBucketIDs
	kindBucketEntries
	kindBucketCount
)

var errMalformed = errors.New("httpapi: malformed message")

// message is one hop envelope. appendWire appends the kind tag and body;
// decodeWire accepts exactly one whole message of its own kind.
type message interface {
	appendWire(dst []byte) []byte
	decodeWire(b []byte) error
}

// queryMsg and updateMsg are the two sealed request bodies: the wire
// types under their kind tags.
type (
	queryMsg  wire.SealedQuery
	updateMsg wire.SealedUpdate
)

func (m *queryMsg) appendWire(dst []byte) []byte {
	return wire.AppendSealedQuery(append(dst, kindQuery), (*wire.SealedQuery)(m), wire.WithTrace)
}

func (m *queryMsg) decodeWire(b []byte) error {
	b, err := openMessage(b, kindQuery)
	if err != nil {
		return err
	}
	sq, b, err := wire.DecodeSealedQuery(b, wire.WithTrace)
	*m = queryMsg(sq)
	return closeMessage(b, err)
}

func (m *updateMsg) appendWire(dst []byte) []byte {
	return wire.AppendSealedUpdate(append(dst, kindUpdate), (*wire.SealedUpdate)(m))
}

func (m *updateMsg) decodeWire(b []byte) error {
	b, err := openMessage(b, kindUpdate)
	if err != nil {
		return err
	}
	su, b, err := wire.DecodeSealedUpdate(b)
	*m = updateMsg(su)
	return closeMessage(b, err)
}

func (m *QueryResponse) appendWire(dst []byte) []byte {
	dst = wire.AppendSealedResult(append(dst, kindQueryResponse), &m.Result)
	return appendBool(dst, m.Hit)
}

func (m *QueryResponse) decodeWire(b []byte) error {
	b, err := openMessage(b, kindQueryResponse)
	if err != nil {
		return err
	}
	if m.Result, b, err = wire.DecodeSealedResult(b); err != nil {
		return err
	}
	m.Hit, b, err = decodeBool(b)
	return closeMessage(b, err)
}

func (m *UpdateResponse) appendWire(dst []byte) []byte {
	dst = appendInt(append(dst, kindUpdateResponse), m.Affected)
	dst = appendInt(dst, m.Invalidated)
	return binary.AppendUvarint(dst, m.Seq)
}

func (m *UpdateResponse) decodeWire(b []byte) error {
	b, err := openMessage(b, kindUpdateResponse)
	if err != nil {
		return err
	}
	if m.Affected, b, err = decodeInt(b); err != nil {
		return err
	}
	if m.Invalidated, b, err = decodeInt(b); err != nil {
		return err
	}
	m.Seq, b, err = wire.Uvarint(b)
	return closeMessage(b, err)
}

func (m *InvalidateResponse) appendWire(dst []byte) []byte {
	return appendInt(append(dst, kindInvalidateResponse), m.Invalidated)
}

func (m *InvalidateResponse) decodeWire(b []byte) error {
	b, err := openMessage(b, kindInvalidateResponse)
	if err != nil {
		return err
	}
	m.Invalidated, b, err = decodeInt(b)
	return closeMessage(b, err)
}

func (m *ExecQueryResponse) appendWire(dst []byte) []byte {
	dst = wire.AppendSealedResult(append(dst, kindExecQueryResponse), &m.Result)
	return appendInt(appendBool(dst, m.Empty), m.Scanned)
}

func (m *ExecQueryResponse) decodeWire(b []byte) error {
	b, err := openMessage(b, kindExecQueryResponse)
	if err != nil {
		return err
	}
	if m.Result, b, err = wire.DecodeSealedResult(b); err != nil {
		return err
	}
	if m.Empty, b, err = decodeBool(b); err != nil {
		return err
	}
	m.Scanned, b, err = decodeInt(b)
	return closeMessage(b, err)
}

func (m *ExecUpdateResponse) appendWire(dst []byte) []byte {
	dst = appendInt(append(dst, kindExecUpdateResponse), m.Affected)
	return binary.AppendUvarint(dst, m.Seq)
}

func (m *ExecUpdateResponse) decodeWire(b []byte) error {
	b, err := openMessage(b, kindExecUpdateResponse)
	if err != nil {
		return err
	}
	if m.Affected, b, err = decodeInt(b); err != nil {
		return err
	}
	m.Seq, b, err = wire.Uvarint(b)
	return closeMessage(b, err)
}

// The apply batch is not counted: updates run to the end of the body, so
// there is no count to forge and nothing for decode to pre-allocate.
func (m *ReplicaApplyRequest) appendWire(dst []byte) []byte {
	dst = append(dst, kindReplicaApplyRequest)
	for i := range m.Batch {
		dst = appendConfirmed(dst, &m.Batch[i])
	}
	return dst
}

func appendConfirmed(dst []byte, c *homeserver.Confirmed) []byte {
	return wire.AppendSealedUpdate(binary.AppendUvarint(dst, c.Seq), &c.Update)
}

func (m *ReplicaApplyRequest) decodeWire(b []byte) error {
	b, err := openMessage(b, kindReplicaApplyRequest)
	if err != nil {
		return err
	}
	m.Batch = nil
	for len(b) > 0 {
		var c homeserver.Confirmed
		if c.Seq, b, err = wire.Uvarint(b); err != nil {
			return err
		}
		if c.Update, b, err = wire.DecodeSealedUpdate(b); err != nil {
			return err
		}
		m.Batch = append(m.Batch, c)
	}
	return nil
}

func (m *ReplicaApplyResponse) appendWire(dst []byte) []byte {
	return binary.AppendUvarint(append(dst, kindReplicaApplyResponse), m.Applied)
}

func (m *ReplicaApplyResponse) decodeWire(b []byte) error {
	b, err := openMessage(b, kindReplicaApplyResponse)
	if err != nil {
		return err
	}
	m.Applied, b, err = wire.Uvarint(b)
	return closeMessage(b, err)
}

// The migration envelopes: wire/bucket.go's template-ID list and bucket
// entries under their kind tags, and the count an import took or a drop
// removed. Both wire decoders refuse trailing bytes themselves.
type (
	bucketIDsMsg     []string
	bucketEntriesMsg []wire.BucketEntry
	bucketCountMsg   int
)

func (m *bucketIDsMsg) appendWire(dst []byte) []byte {
	return wire.AppendTemplateIDs(append(dst, kindBucketIDs), *m)
}

func (m *bucketIDsMsg) decodeWire(b []byte) error {
	b, err := openMessage(b, kindBucketIDs)
	if err != nil {
		return err
	}
	*m, err = wire.DecodeTemplateIDs(b)
	return err
}

func (m *bucketEntriesMsg) appendWire(dst []byte) []byte {
	return wire.AppendBucketEntries(append(dst, kindBucketEntries), *m)
}

func (m *bucketEntriesMsg) decodeWire(b []byte) error {
	b, err := openMessage(b, kindBucketEntries)
	if err != nil {
		return err
	}
	*m, err = wire.DecodeBucketEntries(b)
	return err
}

func (m *bucketCountMsg) appendWire(dst []byte) []byte {
	return appendInt(append(dst, kindBucketCount), int(*m))
}

func (m *bucketCountMsg) decodeWire(b []byte) error {
	b, err := openMessage(b, kindBucketCount)
	if err != nil {
		return err
	}
	n, b, err := decodeInt(b)
	*m = bucketCountMsg(n)
	return closeMessage(b, err)
}

// openMessage strips the kind tag, refusing any other kind.
func openMessage(b []byte, kind byte) ([]byte, error) {
	if len(b) == 0 || b[0] != kind {
		return nil, errMalformed
	}
	return b[1:], nil
}

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
