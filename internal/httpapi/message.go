package httpapi

import (
	"encoding/binary"
	"errors"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sync"

	"dssp/internal/homeserver"
	"dssp/internal/obs"
	"dssp/internal/wire"
)

// Hop encoding: the body of every sealed exchange between processes.
// It extends the sealed-message grammar of wire/sealed.go (query, update,
// result — queries in their WithTrace form) with one kind-tagged envelope
// per message type:
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
//
//	bool  = 0x00 | 0x01
//
// Decoding is strict in the way the wire package's is: lengths are checked
// against the remaining input, non-minimal uvarints, unknown tags and
// trailing bytes are rejected, counts that must fit an int are bounded,
// so every accepted body re-encodes to itself — and nothing decoded
// aliases the input, which is a pooled buffer on both sides of a hop.
// There is one encoding and no negotiation: a request whose Content-Type
// is not wireContentType is refused with 415, so a mixed-version fleet
// fails loudly instead of mis-decoding.
const wireContentType = "application/x-dssp-wire"

// Request-body bounds. Every POST handler reads its whole body before
// decoding, so each read is capped: maxMessageBytes for one sealed
// statement (and for the response a client reads back), maxBatchBytes for
// the two endpoints that carry many — bucket import and replica apply.
// A larger body is answered 413.
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

// wireBuf is pooled staging for one message body: encodes append into it,
// request and response bodies are read into it. Nothing may retain b (or
// a slice of it) past putBuf — decoders copy out what they return.
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

// readFrom replaces the buffer's contents with everything r yields, to
// EOF and at most limit bytes; a longer stream is errTooLarge.
func (wb *wireBuf) readFrom(r io.Reader, limit int64) error {
	wb.b = wb.b[:0]
	for {
		if len(wb.b) == cap(wb.b) {
			wb.b = append(wb.b, 0)[:len(wb.b)]
		}
		n, err := r.Read(wb.b[len(wb.b):cap(wb.b)])
		wb.b = wb.b[:len(wb.b)+n]
		if int64(len(wb.b)) > limit {
			return errTooLarge
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

var errTooLarge = errors.New("httpapi: body exceeds the size bound")

// readBody reads a POST body of at most limit bytes into wb. On failure
// it has answered — 413 for an oversized body, 400 for a broken one — and
// returns false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, wb *wireBuf) bool {
	if r.ContentLength > limit {
		http.Error(w, errTooLarge.Error(), http.StatusRequestEntityTooLarge)
		return false
	}
	// MaxBytesReader fails the read at the bound — before readFrom's own
	// check could — and tells the server to close the connection instead
	// of draining the excess.
	err := wb.readFrom(http.MaxBytesReader(w, r.Body, limit), limit)
	if err == nil {
		return true
	}
	// Declared past the return: errors.As makes it escape, and a body that
	// read cleanly should not pay for the allocation.
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, errTooLarge.Error(), http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return false
}

// readMessage reads and decodes one hop request into m. On failure it has
// answered — 415 for a body that is not the hop encoding, 413 for one
// over limit, 400 for one the decoder refuses — and returns false.
func readMessage(w http.ResponseWriter, r *http.Request, limit int64, m message) bool {
	if r.Header.Get("Content-Type") != wireContentType {
		http.Error(w, "httpapi: Content-Type must be "+wireContentType, http.StatusUnsupportedMediaType)
		return false
	}
	wb := getBuf()
	defer putBuf(wb)
	if !readBody(w, r, limit, wb) {
		return false
	}
	if err := m.decodeWire(wb.b); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// writeMessage writes a hop response body. A failed Write means the
// client saw a truncated response; that cannot be repaired at this point
// (the status line is gone), but it must not be invisible — it is logged
// and counted under http_write_errors in reg (nil skips the counter).
func writeMessage(reg *obs.Registry, w http.ResponseWriter, m message) {
	wb := getBuf()
	defer putBuf(wb)
	wb.b = m.appendWire(wb.b[:0])
	w.Header()["Content-Type"] = wireContentTypeValue
	if _, err := w.Write(wb.b); err != nil {
		slog.Warn("httpapi: response write failed", "bytes", len(wb.b), "err", err)
		if reg != nil {
			reg.Counter(obs.MHTTPWriteErrors).Inc()
		}
	}
}

// encodeMessage stages the encoding in a pooled buffer and copies out a
// right-sized body. The copy is deliberate: the transport may still be
// reading a request body after the round trip returns (an early response,
// a retry), so the bytes handed to it cannot live in a recycled buffer.
func encodeMessage(m message) []byte {
	wb := getBuf()
	defer putBuf(wb)
	wb.b = m.appendWire(wb.b[:0])
	return append(make([]byte, 0, len(wb.b)), wb.b...)
}

// decodeResponse reads a 200 response's body (at most maxMessageBytes)
// into a pooled buffer and decodes it into m.
func decodeResponse(r *http.Response, m message) error {
	wb := getBuf()
	defer putBuf(wb)
	if err := wb.readFrom(r.Body, maxMessageBytes); err != nil {
		return err
	}
	return m.decodeWire(wb.b)
}
