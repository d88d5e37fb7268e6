package httpapi

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/encrypt"
	"dssp/internal/engine"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
	"dssp/internal/wire"
)

var allExposures = []template.Exposure{template.ExpBlind, template.ExpTemplate, template.ExpStmt, template.ExpView}

// sealedAt seals the toystore's Q2 and U1 under one exposure, with the
// result the home server would seal for the query — real messages, so
// fixtures, fuzz seeds and benchmarks carry real keys and ciphertext.
func sealedAt(t testing.TB, exp template.Exposure) (wire.SealedQuery, wire.SealedUpdate, wire.SealedResult) {
	t.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)),
		map[string]template.Exposure{"Q2": exp, "U1": exp})
	sq, err := codec.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(5)})
	if err != nil {
		t.Fatal(err)
	}
	sq.ParentSpan = obs.SpanID{Proc: 0xc1, Seq: 1}
	su, err := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(5)})
	if err != nil {
		t.Fatal(err)
	}
	res := &engine.Result{
		Columns:     []string{"toy_id", "toy_name", "qty"},
		Rows:        [][]sqlparse.Value{{sqlparse.IntVal(5), sqlparse.StringVal("kite"), sqlparse.IntVal(25)}},
		RowsScanned: 1,
	}
	return sq, su, codec.SealResult(app.Query("Q2"), res)
}

// message is what the tests handle every hop envelope as, whatever its
// grammar: product code appends and decodes each by its concrete type, so
// that none goes to the heap behind an interface.
type message interface {
	appendWire(dst []byte) []byte
	decodeWire(b []byte) error
}

// envelopeCase is one populated envelope: the op and way whose grammar it
// is.
type envelopeCase struct {
	op  Op
	dir dir
	msg message
}

func (e envelopeCase) String() string {
	if e.dir == dirRequest {
		return e.op.String() + " request"
	}
	return e.op.String() + " answer"
}

// envelope is an empty envelope of the grammar op names for way d, to
// decode into.
func envelope(op Op, d dir) message {
	if d == dirRequest {
		switch op {
		case OpQuery, OpExecQuery:
			return new(queryMsg)
		case OpUpdate, OpInvalidate, OpExecUpdate:
			return new(updateMsg)
		case OpReplicaApply:
			return new(applyMsg)
		case OpBucketImport:
			return new(bucketEntriesMsg)
		default: // bucket export and drop
			return new(bucketIDsMsg)
		}
	}
	switch op {
	case OpQuery:
		return new(queryAnswer)
	case OpUpdate:
		return new(updateAnswer)
	case OpExecQuery:
		return new(execQueryMsg)
	case OpReplicaApply:
		return new(emptyMsg)
	case OpBucketExport:
		return new(bucketEntriesMsg)
	default: // invalidate, exec update, bucket import and drop
		return new(countMsg)
	}
}

// envelopes returns one populated envelope per (op, way) at an exposure,
// in op order, the request before the answer: envelopes(…)[envelopeIndex(op, d)]
// is op's way d.
func envelopes(t testing.TB, exp template.Exposure) []envelopeCase {
	sq, su, sr := sealedAt(t, exp)
	su2 := su
	su2.TraceID, su2.ParentSpan = obs.TraceID{}, obs.SpanID{} // as the hub would resend it from a log without trace metadata
	migrated := sq
	migrated.TraceID, migrated.ParentSpan = obs.TraceID{}, obs.SpanID{} // trace metadata does not migrate
	ids := bucketIDsMsg{"Q2", "", "Q1"}
	entries := bucketEntriesMsg{{Query: migrated, Result: sr, Ordinal: 1 << 20}, {Query: migrated, Result: wire.SealedResult{Cipher: []byte{}}}}
	count := func(n int) *countMsg { c := countMsg(n); return &c }
	msgs := [numOps][2]message{
		OpQuery:        {(*queryMsg)(&sq), &queryAnswer{result: sr, hit: true}},
		OpUpdate:       {(*updateMsg)(&su), &updateAnswer{affected: 3, invalidated: 200}},
		OpInvalidate:   {(*updateMsg)(&su2), count(129)},
		OpExecQuery:    {(*queryMsg)(&sq), &execQueryMsg{Result: sr, Empty: true, Scanned: 70000}},
		OpExecUpdate:   {(*updateMsg)(&su), count(1)},
		OpReplicaApply: {&applyMsg{{Seq: 1, Update: su}, {Seq: math.MaxUint64, Update: su2}}, new(emptyMsg)},
		OpBucketExport: {&ids, &entries},
		OpBucketImport: {&entries, count(4096)},
		OpBucketDrop:   {&ids, count(0)},
	}
	var cases []envelopeCase
	for op := OpQuery; op < numOps; op++ {
		for d, m := range msgs[op] {
			cases = append(cases, envelopeCase{op, dir(d), m})
		}
	}
	return cases
}

func envelopeIndex(op Op, d dir) int { return 2*int(op-1) + int(d) }

// TestEnvelopesRoundTrip: every envelope, at every exposure, decodes
// under its op and way to what was encoded, and is refused truncated or
// with a trailing byte.
func TestEnvelopesRoundTrip(t *testing.T) {
	for _, exp := range allExposures {
		for _, e := range envelopes(t, exp) {
			enc := e.msg.appendWire(nil)
			got := envelope(e.op, e.dir)
			if err := got.decodeWire(enc); err != nil {
				t.Errorf("%v %v: decode: %v", exp, e, err)
				continue
			}
			if !reflect.DeepEqual(got, e.msg) {
				t.Errorf("%v %v round trip:\n got %+v\nwant %+v", exp, e, got, e.msg)
			}
			if envelope(e.op, e.dir).decodeWire(append(append([]byte(nil), enc...), 0)) == nil {
				t.Errorf("%v %v: trailing byte accepted", exp, e)
			}
			// The apply batch runs to the end of its body, so cutting it
			// between updates leaves a shorter valid batch; anywhere else,
			// and everywhere in the other envelopes, a cut must be refused.
			valid := map[int]bool{}
			if batch, ok := e.msg.(*applyMsg); ok {
				for n := range *batch {
					prefix := (*batch)[:n]
					valid[len((*applyMsg)(&prefix).appendWire(nil))] = true
				}
			}
			for cut := 0; cut < len(enc); cut++ {
				if err := envelope(e.op, e.dir).decodeWire(enc[:cut]); (err == nil) != valid[cut] {
					t.Errorf("%v %v: truncation at %d of %d: err %v", exp, e, cut, len(enc), err)
				}
			}
		}
	}
}

// TestEnvelopeFieldEdges pins the cases the grammar folds together or
// keeps apart inside an envelope: nil and empty Params share an encoding
// (both decode nil), a nil Cipher is no result while an
// empty one is a result, a view-exposure plaintext result survives with
// its rows, and the flags are carried, not inferred.
func TestEnvelopeFieldEdges(t *testing.T) {
	sq, _, _ := sealedAt(t, template.ExpStmt)
	sq.Params = []sqlparse.Value{}
	var gotQ queryMsg
	if err := gotQ.decodeWire((*queryMsg)(&sq).appendWire(nil)); err != nil || gotQ.Params != nil {
		t.Errorf("empty Params decoded as %#v (err %v), want nil", gotQ.Params, err)
	}

	for _, cipher := range [][]byte{nil, {}} {
		want := queryAnswer{result: wire.SealedResult{Cipher: cipher}}
		var got queryAnswer
		if err := got.decodeWire(want.appendWire(nil)); err != nil || (got.result.Cipher == nil) != (cipher == nil) {
			t.Errorf("Cipher %#v decoded as %#v (err %v)", cipher, got.result.Cipher, err)
		}
	}

	_, _, plain := sealedAt(t, template.ExpView)
	if plain.Result == nil {
		t.Fatal("view exposure did not keep the result in the clear")
	}
	for _, empty := range []bool{false, true} {
		want := execQueryMsg{Result: plain, Empty: empty, Scanned: 1}
		var got execQueryMsg
		if err := got.decodeWire(want.appendWire(nil)); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("view-exposure exec query answer (Empty=%v): got %+v (err %v)", empty, got, err)
		}
		if got.Result.Result == plain.Result {
			t.Error("decoded plaintext result is the encoder's object")
		}
	}

	// bool is 0 or 1; counts that land in an int are bounded.
	if new(queryAnswer).decodeWire([]byte{0, 2}) == nil {
		t.Error("bool 0x02 accepted")
	}
	if new(countMsg).decodeWire([]byte{0x80, 0x80, 0x80, 0x80, 0x10}) == nil {
		t.Error("count 2^32 accepted")
	}
	negative := countMsg(-1)
	if new(countMsg).decodeWire(negative.appendWire(nil)) == nil {
		t.Error("negative count survived the hop")
	}
}

// FuzzDecodeMessage fuzzes every envelope decoder with arbitrary bodies
// (ROADMAP: a fuzzer for every decoder that accepts bytes from the
// untrusted tier): the first input byte picks the op and way, the rest is
// the body. Never panics; an accepted body re-encodes to itself; and the
// decoded message still does after the input — a pooled buffer in
// production — is overwritten.
func FuzzDecodeMessage(f *testing.F) {
	cases := envelopes(f, template.ExpStmt)
	seed := func(op Op, d dir, body ...byte) { f.Add(append([]byte{byte(envelopeIndex(op, d))}, body...)) }
	for _, e := range cases {
		seed(e.op, e.dir)
	}
	for _, exp := range allExposures {
		for _, e := range envelopes(f, exp) {
			seed(e.op, e.dir, e.msg.appendWire(nil)...)
		}
	}
	seed(OpBucketImport, dirRequest, 0xff, 0xff, 0xff, 0xff, 0x07, 1, 2, 3) // an entry count forged past the body
	seed(OpBucketExport, dirRequest, 0xff, 0xff, 0x03, 1, 'Q')              // an ID count forged past the body
	for _, op := range []Op{OpQuery, OpUpdate} {
		body := cases[envelopeIndex(op, dirRequest)].msg.appendWire(nil)
		seed(op, dirRequest, body[:1+4]...)        // the trace ID cut short
		seed(op, dirRequest, body[:1+12+4+8-1]...) // the parent span cut short
	}
	for _, e := range cases {
		seed(e.op, e.dir, append(e.msg.appendWire(nil), 0)...) // a byte after a whole envelope
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		e, body := cases[int(b[0])%len(cases)], b[1:]
		in := append([]byte(nil), body...)
		m := envelope(e.op, e.dir)
		if m.decodeWire(in) != nil {
			return
		}
		if got := m.appendWire(nil); !bytes.Equal(got, body) {
			t.Fatalf("%v: accepted body is not canonical:\n in: %x\nout: %x", e, body, got)
		}
		for i := range in {
			in[i] ^= 0xA5
		}
		if got := m.appendWire(nil); !bytes.Equal(got, body) {
			t.Fatalf("%v: decoded message aliases its input", e)
		}
	})
}

// hopSink keeps the benchmarks' decoded messages reachable, so the
// compiler cannot drop the work.
var hopSink struct {
	sq   wire.SealedQuery
	su   wire.SealedUpdate
	resp queryAnswer
	exec pipeline.ExecQueryResult
}

// BenchmarkHopCodec is one sealed query → query answer exchange with no
// socket: the request staged in a pooled buffer behind the frame header's
// room as a call does, decoded as a handler does, the response staged the
// same way, and decoded as the caller does. Gated in BENCH_allocs.json.
func BenchmarkHopCodec(b *testing.B) {
	sq, _, sr := sealedAt(b, template.ExpStmt)
	answer := queryAnswer{result: sr, hit: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wb := getBuf()
		wb.b = (*queryMsg)(&sq).appendWire(startFrame(wb.b))
		err := (*queryMsg)(&hopSink.sq).decodeWire(wb.b[frameHeaderMax:])
		if err == nil {
			wb.b = answer.appendWire(startFrame(wb.b))
			err = hopSink.resp.decodeWire(wb.b[frameHeaderMax:])
		}
		putBuf(wb)
		if err != nil {
			b.Fatal(err)
		}
	}
}
