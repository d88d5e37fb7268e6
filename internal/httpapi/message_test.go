package httpapi

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/encrypt"
	"dssp/internal/engine"
	"dssp/internal/homeserver"
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
	sq.ParentSpan = "client/1"
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

// envelopeCase is one populated hop message beside a constructor for an
// empty one of its type to decode into.
type envelopeCase struct {
	name  string
	msg   message
	empty func() message
}

// envelopes returns one populated instance of each of the twelve hop
// messages at an exposure.
func envelopes(t testing.TB, exp template.Exposure) []envelopeCase {
	sq, su, sr := sealedAt(t, exp)
	su2 := su
	su2.TraceID, su2.ParentSpan = "", "" // as the hub would resend it from a log without trace metadata
	migrated := sq
	migrated.TraceID, migrated.ParentSpan = "", "" // trace metadata does not migrate
	ids := bucketIDsMsg{"Q2", "", "Q1"}
	entries := bucketEntriesMsg{{Query: migrated, Result: sr, Ordinal: 1 << 20}, {Query: migrated, Result: wire.SealedResult{Cipher: []byte{}}}}
	count := bucketCountMsg(4096)
	return []envelopeCase{
		{"query", (*queryMsg)(&sq), func() message { return new(queryMsg) }},
		{"update", (*updateMsg)(&su), func() message { return new(updateMsg) }},
		{"QueryResponse", &QueryResponse{Result: sr, Hit: true}, func() message { return new(QueryResponse) }},
		{"UpdateResponse", &UpdateResponse{Affected: 3, Invalidated: 200, Seq: math.MaxUint64}, func() message { return new(UpdateResponse) }},
		{"InvalidateResponse", &InvalidateResponse{Invalidated: 129}, func() message { return new(InvalidateResponse) }},
		{"ExecQueryResponse", &ExecQueryResponse{Result: sr, Empty: true, Scanned: 70000}, func() message { return new(ExecQueryResponse) }},
		{"ExecUpdateResponse", &ExecUpdateResponse{Affected: 1, Seq: math.MaxUint64}, func() message { return new(ExecUpdateResponse) }},
		{"ReplicaApplyRequest", &ReplicaApplyRequest{Batch: []homeserver.Confirmed{{Seq: 1, Update: su}, {Seq: math.MaxUint64, Update: su2}}}, func() message { return new(ReplicaApplyRequest) }},
		{"ReplicaApplyResponse", &ReplicaApplyResponse{Applied: math.MaxUint64}, func() message { return new(ReplicaApplyResponse) }},
		{"bucket IDs", &ids, func() message { return new(bucketIDsMsg) }},
		{"bucket entries", &entries, func() message { return new(bucketEntriesMsg) }},
		{"bucket count", &count, func() message { return new(bucketCountMsg) }},
	}
}

// TestEnvelopesRoundTrip: every envelope, at every exposure, decodes to
// what was encoded; is refused by every other envelope's decoder (the
// kind tag); and is refused truncated or with a trailing byte.
func TestEnvelopesRoundTrip(t *testing.T) {
	for _, exp := range allExposures {
		envs := envelopes(t, exp)
		for _, e := range envs {
			enc := e.msg.appendWire(nil)
			got := e.empty()
			if err := got.decodeWire(enc); err != nil {
				t.Errorf("%v %s: decode: %v", exp, e.name, err)
				continue
			}
			if !reflect.DeepEqual(got, e.msg) {
				t.Errorf("%v %s round trip:\n got %+v\nwant %+v", exp, e.name, got, e.msg)
			}
			for _, other := range envs {
				if other.name != e.name && other.empty().decodeWire(enc) == nil {
					t.Errorf("%v: a %s body was accepted as %s", exp, e.name, other.name)
				}
			}
			if e.empty().decodeWire(append(append([]byte(nil), enc...), 0)) == nil {
				t.Errorf("%v %s: trailing byte accepted", exp, e.name)
			}
			// The apply batch runs to the end of its body, so cutting it
			// between updates leaves a shorter valid batch; anywhere else,
			// and everywhere in the other envelopes, a cut must be refused.
			valid := map[int]bool{}
			if req, ok := e.msg.(*ReplicaApplyRequest); ok {
				for n := range req.Batch {
					valid[len((&ReplicaApplyRequest{Batch: req.Batch[:n]}).appendWire(nil))] = true
				}
			}
			for cut := 0; cut < len(enc); cut++ {
				if err := e.empty().decodeWire(enc[:cut]); (err == nil) != valid[cut] {
					t.Errorf("%v %s: truncation at %d of %d: err %v", exp, e.name, cut, len(enc), err)
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
		want := QueryResponse{Result: wire.SealedResult{Cipher: cipher}}
		var got QueryResponse
		if err := got.decodeWire(want.appendWire(nil)); err != nil || (got.Result.Cipher == nil) != (cipher == nil) {
			t.Errorf("Cipher %#v decoded as %#v (err %v)", cipher, got.Result.Cipher, err)
		}
	}

	_, _, plain := sealedAt(t, template.ExpView)
	if plain.Result == nil {
		t.Fatal("view exposure did not keep the result in the clear")
	}
	for _, empty := range []bool{false, true} {
		want := ExecQueryResponse{Result: plain, Empty: empty, Scanned: 1}
		var got ExecQueryResponse
		if err := got.decodeWire(want.appendWire(nil)); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("view-exposure ExecQueryResponse (Empty=%v): got %+v (err %v)", empty, got, err)
		}
		if got.Result.Result == plain.Result {
			t.Error("decoded plaintext result is the encoder's object")
		}
	}

	// bool is 0 or 1; counts that land in an int are bounded.
	if new(QueryResponse).decodeWire([]byte{kindQueryResponse, 0, 2}) == nil {
		t.Error("bool 0x02 accepted")
	}
	if new(InvalidateResponse).decodeWire([]byte{kindInvalidateResponse, 0x80, 0x80, 0x80, 0x80, 0x10}) == nil {
		t.Error("count 2^32 accepted")
	}
	if new(InvalidateResponse).decodeWire((&InvalidateResponse{Invalidated: -1}).appendWire(nil)) == nil {
		t.Error("negative count survived the hop")
	}
}

// FuzzDecodeMessage fuzzes every envelope decoder with arbitrary bodies
// (ROADMAP: a fuzzer for every decoder that accepts bytes from the
// untrusted tier). Never panics; an accepted body re-encodes to itself;
// and the decoded message still does after the input — a pooled buffer in
// production — is overwritten.
func FuzzDecodeMessage(f *testing.F) {
	f.Add([]byte{})
	for _, exp := range allExposures {
		for _, e := range envelopes(f, exp) {
			f.Add(e.msg.appendWire(nil))
		}
	}
	f.Add([]byte{kindBucketEntries, 0xff, 0xff, 0xff, 0xff, 0x07, 1, 2, 3}) // an entry count forged past the body
	f.Add([]byte{kindBucketIDs, 0xff, 0xff, 0x03, 1, 'Q'})                  // an ID count forged past the body
	empties := envelopes(f, template.ExpStmt)
	for _, e := range empties {
		f.Add(append(e.msg.appendWire(nil), 0)) // a byte after a whole envelope
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, e := range empties {
			in := append([]byte(nil), b...)
			m := e.empty()
			if m.decodeWire(in) != nil {
				continue
			}
			if got := m.appendWire(nil); !bytes.Equal(got, b) {
				t.Fatalf("%s: accepted body is not canonical:\n in: %x\nout: %x", e.name, b, got)
			}
			for i := range in {
				in[i] ^= 0xA5
			}
			if got := m.appendWire(nil); !bytes.Equal(got, b) {
				t.Fatalf("%s: decoded message aliases its input", e.name)
			}
		}
	})
}

// hopSink keeps the benchmarks' decoded messages reachable, so the
// compiler cannot drop the work.
var hopSink struct {
	sq   wire.SealedQuery
	resp QueryResponse
}

// BenchmarkHopCodec is one sealed query → QueryResponse exchange with no
// socket: the request staged in a pooled buffer behind the frame header's
// room as a call does, decoded as a handler does, the response staged the
// same way, and decoded as the caller does. Gated in BENCH_allocs.json.
func BenchmarkHopCodec(b *testing.B) {
	sq, _, sr := sealedAt(b, template.ExpStmt)
	answer := QueryResponse{Result: sr, Hit: true}
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
