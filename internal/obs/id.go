package obs

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"strconv"
	"sync/atomic"
)

// TraceID names one query or update across client, router, node and home
// server: the process that sealed the statement and the statement's
// sequence number there. It rides inside wire sealed messages as two
// fixed-width numbers, so following a request costs no string anywhere on
// the hot path; the zero TraceID means "none". It never becomes a metric
// label (that would be unbounded cardinality); it keys the span store.
//
// Its text, made only where a person or a JSON reader looks — String,
// MarshalText — is <8 hex digits of Proc>-<Seq, zero-padded to six
// digits>, and ParseTraceID reads back exactly that.
type TraceID struct {
	Proc uint32
	Seq  uint64
}

// SpanID names one span: the recording process and the span's sequence
// number there. Span IDs link a request's stages into a tree: each hop
// records its spans with the upstream span as parent, carried in the
// sealed message's ParentSpan field. The zero SpanID means "none". Its
// text is <8 hex digits of Proc>-s<Seq, zero-padded to six digits>.
type SpanID struct {
	Proc uint32
	Seq  uint64
}

// process is this process's random prefix, the Proc of every ID it mints.
var (
	traceSeq atomic.Uint64
	spanSeq  atomic.Uint64
	process  = func() uint32 {
		var b [4]byte
		_, _ = rand.Read(b[:]) // a zero prefix still names distinct IDs in one process
		return binary.BigEndian.Uint32(b[:])
	}()
)

// NewTraceID returns a fresh process-unique trace ID.
func NewTraceID() TraceID { return TraceID{Proc: process, Seq: traceSeq.Add(1)} }

// newSpanID returns a fresh process-unique span ID.
func newSpanID() SpanID { return SpanID{Proc: process, Seq: spanSeq.Add(1)} }

// Separators between an ID's prefix and its sequence number.
const (
	traceSep = "-"
	spanSep  = "-s"
)

// IsZero reports whether id is "none".
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders id as text; "" for the zero ID.
func (id TraceID) String() string { return formatID(id.Proc, traceSep, id.Seq) }

// MarshalText renders id for JSON: the zero ID as "".
func (id TraceID) MarshalText() ([]byte, error) { return appendID(nil, id.Proc, traceSep, id.Seq), nil }

// UnmarshalText reads what MarshalText wrote: "" as the zero ID, and
// otherwise what ParseTraceID accepts.
func (id *TraceID) UnmarshalText(b []byte) error {
	var err error
	*id = TraceID{}
	if len(b) > 0 {
		*id, err = ParseTraceID(string(b))
	}
	return err
}

// ParseTraceID reads a trace ID's text. It accepts exactly what String
// renders for a non-zero ID.
func ParseTraceID(s string) (TraceID, error) {
	proc, seq, err := parseID(s, traceSep)
	return TraceID{Proc: proc, Seq: seq}, err
}

// IsZero reports whether id is "none".
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders id as text; "" for the zero ID.
func (id SpanID) String() string { return formatID(id.Proc, spanSep, id.Seq) }

// MarshalText renders id for JSON: the zero ID as "".
func (id SpanID) MarshalText() ([]byte, error) { return appendID(nil, id.Proc, spanSep, id.Seq), nil }

// UnmarshalText reads what MarshalText wrote: "" as the zero ID, and
// otherwise exactly what String renders for a non-zero one.
func (id *SpanID) UnmarshalText(b []byte) error {
	var err error
	*id = SpanID{}
	if len(b) > 0 {
		id.Proc, id.Seq, err = parseID(string(b), spanSep)
	}
	return err
}

// idPrefixLen is the width of an ID's prefix in hex digits, idSeqDigits
// the width its sequence number is zero-padded to.
const (
	idPrefixLen = 8
	idSeqDigits = 6
)

// formatID renders an ID through a stack buffer, so the only allocation is
// the string itself.
func formatID(proc uint32, sep string, seq uint64) string {
	var buf [40]byte
	return string(appendID(buf[:0], proc, sep, seq))
}

// appendID appends <proc as 8 hex digits><sep><seq, zero-padded to six
// digits> to b, or nothing for the zero ID.
func appendID(b []byte, proc uint32, sep string, seq uint64) []byte {
	if proc == 0 && seq == 0 {
		return b
	}
	const hexDigits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, hexDigits[proc>>shift&0xf])
	}
	b = append(b, sep...)
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], seq, 10)
	for n := len(d); n < idSeqDigits; n++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

var errBadID = errors.New("obs: malformed trace or span ID")

// parseID reads what appendID renders for a non-zero ID: lower-case hex,
// and a sequence number padded to six digits and no further.
func parseID(s, sep string) (proc uint32, seq uint64, err error) {
	if len(s) < idPrefixLen+len(sep)+idSeqDigits || s[idPrefixLen:idPrefixLen+len(sep)] != sep {
		return 0, 0, errBadID
	}
	for _, c := range []byte(s[:idPrefixLen]) {
		switch {
		case '0' <= c && c <= '9':
			proc = proc<<4 | uint32(c-'0')
		case 'a' <= c && c <= 'f':
			proc = proc<<4 | uint32(c-'a'+10)
		default:
			return 0, 0, errBadID
		}
	}
	digits := s[idPrefixLen+len(sep):]
	if len(digits) > idSeqDigits && digits[0] == '0' {
		return 0, 0, errBadID
	}
	for _, c := range []byte(digits) {
		if c < '0' || c > '9' {
			return 0, 0, errBadID
		}
	}
	if seq, err = strconv.ParseUint(digits, 10, 64); err != nil || (proc == 0 && seq == 0) {
		return 0, 0, errBadID
	}
	return proc, seq, nil
}
