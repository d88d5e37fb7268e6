package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"dssp/internal/engine"
	"dssp/internal/obs"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

var allExposures = []template.Exposure{template.ExpBlind, template.ExpTemplate, template.ExpStmt, template.ExpView}

// sealedAt seals the toystore's Q2 and U1 under one exposure and returns
// them with the result the home server would seal for the query: real
// messages, so the seeds and fixtures below carry real keys, tokens and
// ciphertext.
func sealedAt(t testing.TB, exp template.Exposure) (SealedQuery, SealedUpdate, SealedResult) {
	t.Helper()
	c, app := testCodec(t, map[string]template.Exposure{"Q2": exp, "U1": exp})
	sq, err := c.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(5)})
	if err != nil {
		t.Fatal(err)
	}
	sq.ParentSpan = obs.SpanID{Proc: 0xc1, Seq: 1}
	su, err := c.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(5)})
	if err != nil {
		t.Fatal(err)
	}
	res := &engine.Result{
		Columns:     []string{"toy_id", "qty"},
		Vals:        []sqlparse.Value{sqlparse.IntVal(5), sqlparse.StringVal("kite\x00"), sqlparse.Null(), sqlparse.FloatVal(2.5)},
		RowsScanned: 4,
	}
	return sq, su, c.SealResult(app.Query("Q2"), res)
}

// checkCanonical is the property every sealed-message decoder holds, for
// one accepted input: the bytes it consumed are exactly what its output
// re-encodes to, and the output shares no memory with the input. It
// overwrites in, so fuzz targets pass a copy of their argument.
func checkCanonical(t *testing.T, in, rest []byte, reencode func() []byte) {
	t.Helper()
	consumed := append([]byte(nil), in[:len(in)-len(rest)]...)
	if got := reencode(); !bytes.Equal(got, consumed) {
		t.Fatalf("accepted input is not canonical:\n in: %x\nout: %x", consumed, got)
	}
	for i := range in {
		in[i] ^= 0xA5
	}
	if got := reencode(); !bytes.Equal(got, consumed) {
		t.Fatalf("decoded message aliases its input: re-encodes to %x after the input was overwritten, want %x", got, consumed)
	}
}

func TestSealedMessagesRoundTrip(t *testing.T) {
	for _, exp := range allExposures {
		sq, su, sr := sealedAt(t, exp)
		for _, trace := range []bool{WithTrace, NoTrace} {
			want := sq
			if !trace {
				want.TraceID, want.ParentSpan = obs.TraceID{}, obs.SpanID{}
			}
			enc := AppendSealedQuery([]byte("prefix"), &sq, trace)[len("prefix"):]
			got, rest, err := DecodeSealedQuery(append(enc, "rest"...), trace)
			if err != nil || string(rest) != "rest" {
				t.Fatalf("%v query (trace=%v): rest %q, err %v", exp, trace, rest, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v query (trace=%v) round trip:\n got %+v\nwant %+v", exp, trace, got, want)
			}
		}
		gotU, rest, err := DecodeSealedUpdate(AppendSealedUpdate(nil, &su))
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(gotU, su) {
			t.Errorf("%v update round trip: %+v (rest %q, err %v), want %+v", exp, gotU, rest, err, su)
		}
		gotR, rest, err := DecodeSealedResult(AppendSealedResult(nil, &sr))
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(gotR, sr) {
			t.Errorf("%v result round trip: %+v (rest %q, err %v), want %+v", exp, gotR, rest, err, sr)
		}
		if (sr.Result != nil) != (exp == template.ExpView) {
			t.Errorf("%v: fixture result plaintext=%v", exp, sr.Result != nil)
		}
	}
}

// TestSealedAbsentVersusEmpty pins which distinctions the grammar keeps:
// none between nil and empty Params or Opaque (both decode nil), but a
// nil Cipher is "no result" while an empty one is a sealed result.
func TestSealedAbsentVersusEmpty(t *testing.T) {
	empty := SealedQuery{Params: []sqlparse.Value{}, Opaque: []byte{}}
	if !bytes.Equal(AppendSealedQuery(nil, &empty, WithTrace), AppendSealedQuery(nil, &SealedQuery{}, WithTrace)) {
		t.Error("empty and nil Params/Opaque encode differently")
	}
	got, _, err := DecodeSealedQuery(AppendSealedQuery(nil, &empty, WithTrace), WithTrace)
	if err != nil || got.Params != nil || got.Opaque != nil {
		t.Errorf("empty Params/Opaque decoded as %#v / %#v (err %v), want nil", got.Params, got.Opaque, err)
	}
	for _, sr := range []SealedResult{{}, {Cipher: []byte{}}} {
		got, _, err := DecodeSealedResult(AppendSealedResult(nil, &sr))
		if err != nil || (got.Cipher == nil) != (sr.Cipher == nil) || len(got.Cipher) != 0 {
			t.Errorf("result %#v decoded as %#v (err %v)", sr, got, err)
		}
	}
}

func TestSealedDecodersRejectMalformed(t *testing.T) {
	sq, su, sr := sealedAt(t, template.ExpStmt)
	encs := map[string]struct {
		enc    []byte
		decode func([]byte) error
	}{
		"query":  {AppendSealedQuery(nil, &sq, WithTrace), func(b []byte) error { _, _, err := DecodeSealedQuery(b, WithTrace); return err }},
		"update": {AppendSealedUpdate(nil, &su), func(b []byte) error { _, _, err := DecodeSealedUpdate(b); return err }},
		"result": {AppendSealedResult(nil, &sr), func(b []byte) error { _, _, err := DecodeSealedResult(b); return err }},
	}
	for name, c := range encs {
		for cut := 0; cut < len(c.enc); cut++ {
			if c.decode(c.enc[:cut]) == nil {
				t.Errorf("%s: truncation at %d of %d accepted", name, cut, len(c.enc))
			}
		}
	}
	// exposure and a trace ID one byte short of its width.
	if _, _, err := DecodeSealedQuery(make([]byte, 1+idLen-1), WithTrace); err == nil {
		t.Error("truncated trace ID accepted")
	}
	// exposure and zero trace fields, then a template-ID length in the
	// non-minimal form 0x80 0x00.
	if _, _, err := DecodeSealedQuery(traced(0x80, 0x00, 0, 0, 0, 0, 0), WithTrace); err == nil {
		t.Error("non-minimal uvarint accepted")
	}
	// exposure, zero trace fields, empty template, then group 2^32.
	if _, _, err := DecodeSealedUpdate(traced(0, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0)); err == nil {
		t.Error("group beyond int32 accepted")
	}
	if _, _, err := DecodeSealedResult([]byte{3}); err == nil {
		t.Error("unknown result tag accepted")
	}
}

// traced is a statement's WithTrace form up to its trace fields, all zero —
// exposure 2 — followed by tail.
func traced(tail ...byte) []byte {
	return append(append([]byte{2}, make([]byte, 2*idLen)...), tail...)
}

// referenceDecodeSealedQuery and referenceDecodeSealedUpdate are the
// field-by-field decoders the one-walk ones replaced, kept as the
// reference for what is accepted and what it decodes to: one string per
// field, one per string parameter.
func referenceDecodeSealedQuery(b []byte, trace bool) (SealedQuery, []byte, error) {
	var sq SealedQuery
	if len(b) == 0 {
		return sq, nil, errMalformed
	}
	sq.Exposure, b = template.Exposure(b[0]), b[1:]
	var err error
	if trace {
		if sq.TraceID, sq.ParentSpan, b, err = referenceDecodeTrace(b); err != nil {
			return sq, nil, errMalformed
		}
	}
	if sq.TemplateID, sq.Group, sq.Params, b, err = referenceDecodeStatement(b); err != nil {
		return sq, nil, errMalformed
	}
	if sq.Key, b, err = decodeString(b); err != nil {
		return sq, nil, errMalformed
	}
	if sq.Opaque, b, err = referenceDecodeOpaque(b); err != nil {
		return sq, nil, errMalformed
	}
	return sq, b, nil
}

func referenceDecodeSealedUpdate(b []byte) (SealedUpdate, []byte, error) {
	var su SealedUpdate
	if len(b) == 0 {
		return su, nil, errMalformed
	}
	su.Exposure, b = template.Exposure(b[0]), b[1:]
	var err error
	if su.TraceID, su.ParentSpan, b, err = referenceDecodeTrace(b); err != nil {
		return su, nil, errMalformed
	}
	if su.TemplateID, su.Group, su.Params, b, err = referenceDecodeStatement(b); err != nil {
		return su, nil, errMalformed
	}
	if su.Opaque, b, err = referenceDecodeOpaque(b); err != nil {
		return su, nil, errMalformed
	}
	return su, b, nil
}

// referenceDecodeTrace reads the two fixed-width trace fields.
func referenceDecodeTrace(b []byte) (trace obs.TraceID, parent obs.SpanID, rest []byte, err error) {
	if len(b) < 24 {
		return trace, parent, nil, errMalformed
	}
	trace = obs.TraceID{Proc: binary.BigEndian.Uint32(b[0:4]), Seq: binary.BigEndian.Uint64(b[4:12])}
	parent = obs.SpanID{Proc: binary.BigEndian.Uint32(b[12:16]), Seq: binary.BigEndian.Uint64(b[16:24])}
	return trace, parent, b[24:], nil
}

func referenceDecodeStatement(b []byte) (templateID string, group int, params []sqlparse.Value, rest []byte, err error) {
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

// referenceDecodeOpaque decodes the statement payload into a fresh slice;
// its empty encoding means absent.
func referenceDecodeOpaque(b []byte) ([]byte, []byte, error) {
	n, rest, err := Uvarint(b)
	if err != nil || n > uint64(len(rest)) {
		return nil, nil, errMalformed
	}
	var opaque []byte
	if n > 0 {
		opaque = append([]byte(nil), rest[:n]...)
	}
	return opaque, rest[n:], nil
}

// sealedCorpus seeds the differential tests of the statement decoders:
// real sealed messages at every exposure, the shapes the grammar folds or
// bounds — every string empty, no opaque payload, a parameter count at and
// past what the input left can hold, a wide parameter list of every kind —
// and one input for each way of breaking it. enc renders a query (the
// update is the same statement without its key) in the form under test;
// trace says whether that form has the trace fields, which lead each
// broken input.
func sealedCorpus(t testing.TB, enc func(SealedQuery) []byte, trace bool) [][]byte {
	var corpus [][]byte
	for _, exp := range allExposures {
		sq, _, _ := sealedAt(t, exp)
		corpus = append(corpus, enc(sq))
	}
	wide := SealedQuery{Exposure: template.ExpStmt, TemplateID: "Q9", Group: math.MaxInt32, Key: "k", Opaque: []byte{0}}
	for i := 0; i < 255; i++ {
		wide.Params = append(wide.Params, []sqlparse.Value{
			sqlparse.Null(), sqlparse.IntVal(math.MinInt64), sqlparse.FloatVal(math.NaN()),
			sqlparse.StringVal(""), sqlparse.StringVal("robot\x00toy"),
		}[i%5])
	}
	nulls := SealedQuery{Params: make([]sqlparse.Value, 64)} // a count as large as its values are short
	ids := SealedQuery{TraceID: obs.TraceID{Proc: math.MaxUint32, Seq: math.MaxUint64}, ParentSpan: obs.SpanID{Proc: 1}, TemplateID: "Q1", Key: "k"}
	lead := []byte{2}
	if trace {
		lead = traced()
	}
	broken := func(tail ...byte) []byte { return append(bytes.Clone(lead), tail...) }
	return append(corpus,
		enc(SealedQuery{}), // zero IDs, every string empty, no parameters, no opaque payload
		enc(ids),           // the widest IDs and strings, still no opaque
		enc(SealedQuery{Opaque: []byte("only")}),
		enc(SealedQuery{Params: []sqlparse.Value{sqlparse.StringVal("")}, Key: "k"}), // an empty string parameter
		enc(wide),
		enc(nulls),
		append(enc(nulls), "rest"...),
		[]byte{},
		[]byte{2},
		traced()[:idLen],                  // the trace ID cut short
		traced()[:2*idLen],                // the parent span cut short
		broken(0x80, 0x00, 0, 0, 0, 0, 0), // non-minimal uvarint
		broken(0, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0, 0), // group 2^32
		broken(0, 0, 9, 0, 0, 0),                         // parameter count above the input left
		broken(0, 0, 1, 7, 0, 0),                         // unknown value kind
		broken(0, 0, 1, 1, 0, 0, 0),                      // truncated integer parameter
		broken(0, 0, 1, 3, 5, 'a', 0, 0),                 // string parameter running off the end
		broken(0, 0, 0, 0, 4, 'a'),                       // opaque running off the end
	)
}

// identicalParams is reflect.DeepEqual — nil differs from empty — except
// that floats compare by their bits, so a NaN equals itself.
func identicalParams(a, b []sqlparse.Value) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i, va := range a {
		vb := b[i]
		if va.Kind != vb.Kind || va.Int() != vb.Int() || va.Str != vb.Str ||
			math.Float64bits(va.Float()) != math.Float64bits(vb.Float()) {
			return false
		}
	}
	return true
}

// checkDecodeSealedQuery holds DecodeSealedQuery to the reference on one
// input: both accept or both reject; an accepted query is deeply equal, nil
// versus empty included, and leaves the same remainder; and it is canonical
// and free of its input.
func checkDecodeSealedQuery(t *testing.T, b []byte, trace bool) {
	t.Helper()
	want, wantRest, wantErr := referenceDecodeSealedQuery(b, trace)
	in := bytes.Clone(b)
	got, rest, err := DecodeSealedQuery(in, trace)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("DecodeSealedQuery(%x, trace=%v): err %v, reference: %v", b, trace, err, wantErr)
	}
	if err != nil {
		return
	}
	gotP, wantP := got.Params, want.Params
	got.Params, want.Params = nil, nil
	if !reflect.DeepEqual(got, want) || !identicalParams(gotP, wantP) || !bytes.Equal(rest, wantRest) {
		t.Fatalf("DecodeSealedQuery(%x, trace=%v) = %#v %v (rest %x), reference decoded %#v %v (rest %x)",
			b, trace, got, gotP, rest, want, wantP, wantRest)
	}
	got.Params = gotP
	checkCanonical(t, in, rest, func() []byte { return AppendSealedQuery(nil, &got, trace) })
}

// DecodeSealedUpdate consumes one sealed update and decodes it whole: its
// strings in one copy, its parameters decoded, its payload copied. No
// process decodes an update so any more — each reads it in place
// (ReadSealedUpdate, ReadSealedUpdateFrom) and its one keeper copies it
// (KeepIn, Own) — so it lives here, the decoder the in-place readers are
// held to, itself held to the field-by-field reference.
func DecodeSealedUpdate(b []byte) (SealedUpdate, []byte, error) {
	s, err := walk(b, WithTrace, false)
	if err != nil {
		return SealedUpdate{}, nil, err
	}
	sq := s.query(string(s.head(b)))
	return SealedUpdate{
		Exposure: sq.Exposure, TraceID: sq.TraceID, ParentSpan: sq.ParentSpan, TemplateID: sq.TemplateID,
		Group: sq.Group, Params: decodeParams(sq.params), Opaque: cloneOpaque(sq.Opaque),
	}, b[s.end:], nil
}

func checkDecodeSealedUpdate(t *testing.T, b []byte) {
	t.Helper()
	want, wantRest, wantErr := referenceDecodeSealedUpdate(b)
	in := bytes.Clone(b)
	got, rest, err := DecodeSealedUpdate(in)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("DecodeSealedUpdate(%x): err %v, reference: %v", b, err, wantErr)
	}
	if err != nil {
		return
	}
	gotP, wantP := got.Params, want.Params
	got.Params, want.Params = nil, nil
	if !reflect.DeepEqual(got, want) || !identicalParams(gotP, wantP) || !bytes.Equal(rest, wantRest) {
		t.Fatalf("DecodeSealedUpdate(%x) = %#v %v (rest %x), reference decoded %#v %v (rest %x)",
			b, got, gotP, rest, want, wantP, wantRest)
	}
	got.Params = gotP
	checkCanonical(t, in, rest, func() []byte { return AppendSealedUpdate(nil, &got) })
}

// sealedQueryForms and sealedUpdateForm are the corpus in each encoding a
// statement decoder reads.
func sealedQueryForms(t testing.TB) [][]byte {
	return append(
		sealedCorpus(t, func(sq SealedQuery) []byte { return AppendSealedQuery(nil, &sq, WithTrace) }, WithTrace),
		sealedCorpus(t, func(sq SealedQuery) []byte { return AppendSealedQuery(nil, &sq, NoTrace) }, NoTrace)...)
}

func sealedUpdateForm(t testing.TB) [][]byte {
	return sealedCorpus(t, func(sq SealedQuery) []byte {
		return AppendSealedUpdate(nil, &SealedUpdate{Exposure: sq.Exposure, TraceID: sq.TraceID, ParentSpan: sq.ParentSpan,
			TemplateID: sq.TemplateID, Group: sq.Group, Params: sq.Params, Opaque: sq.Opaque})
	}, WithTrace)
}

// TestSealedDecodersMatchReference: on the corpus and every truncation of
// it, the statement decoders accept what the reference accepts and decode
// it to the same message — and every accepted input re-encodes to exactly
// the bytes consumed.
func TestSealedDecodersMatchReference(t *testing.T) {
	for _, b := range sealedQueryForms(t) {
		for n := 0; n <= len(b); n++ {
			checkDecodeSealedQuery(t, b[:n], WithTrace)
			checkDecodeSealedQuery(t, b[:n], NoTrace)
		}
	}
	for _, b := range sealedUpdateForm(t) {
		for n := 0; n <= len(b); n++ {
			checkDecodeSealedUpdate(t, b[:n])
		}
	}
}

// TestDecodeSealedAllocations pins what the two passes buy: the copy the
// strings share, the parameter slice and the opaque payload — whatever the
// number of string fields.
func TestDecodeSealedAllocations(t *testing.T) {
	sq, su, _ := sealedAt(t, template.ExpStmt)
	sq.Params = append(sq.Params, sqlparse.StringVal("kite"), sqlparse.StringVal("bear"))
	q, u := AppendSealedQuery(nil, &sq, WithTrace), AppendSealedUpdate(nil, &su)
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeSealedQuery(q, WithTrace); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("DecodeSealedQuery: %v allocations, want <= 3", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeSealedUpdate(u); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("DecodeSealedUpdate: %v allocations, want <= 3", n)
	}
}

var sealedSink SealedQuery

// BenchmarkDecodeSealedQuery is what every server a statement crosses pays
// to read it (three times on a miss). Gated in BENCH_allocs.json.
func BenchmarkDecodeSealedQuery(b *testing.B) {
	sq, _, _ := sealedAt(b, template.ExpStmt)
	enc := AppendSealedQuery(nil, &sq, WithTrace)
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if sealedSink, _, err = DecodeSealedQuery(enc, WithTrace); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzDecodeSealedQuery runs the comparison with the reference, in both
// forms, on arbitrary input: the decoder the home server runs on bytes the
// untrusted tier forwards never panics, accepts exactly what the
// field-by-field decoder did, and what it accepts is canonical and free of
// its input.
func FuzzDecodeSealedQuery(f *testing.F) {
	for _, b := range sealedQueryForms(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecodeSealedQuery(t, b, WithTrace)
		checkDecodeSealedQuery(t, b, NoTrace)
	})
}

// FuzzDecodeSealedUpdate is the same for the update decoder.
func FuzzDecodeSealedUpdate(f *testing.F) {
	for _, b := range sealedUpdateForm(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkDecodeSealedUpdate(t, b) })
}

// routerIDs is a router's table of template IDs: the fixtures' Q1, Q2
// and U1 are in it, the corpus's Q9 is not.
var routerIDs = map[string]string{"Q1": "Q1", "Q2": "Q2", "U1": "U1"}

// checkReadRaw holds the in-place readers to the decoders on one input.
// Each accepts exactly what DecodeSealedQuery (WithTrace) or
// DecodeSealedUpdate accepts with nothing left over, and what it returns
// reads as the decoded statement after the input was cleared, but for the
// payload, which is lent:
//   - ReadSealedQuery (a node's read): the whole query once KeepIn has
//     run, Params included, with no encoded form left;
//   - ReadQueryPayload (a home's): the trace fields and the payload, and
//     nothing else;
//   - Raw.ReadQuery and Raw.ReadUpdate (a router's): the head, its
//     template ID the table's own string when the table holds it, and a
//     key exactly when the template ID is empty. Append without a parent
//     gives the input back, and with one the statement re-encoded under
//     that parent, written over the field in place after whatever dst held.
func checkReadRaw(t *testing.T, b []byte) {
	t.Helper()
	sq, rest, err := DecodeSealedQuery(b, WithTrace)
	wantErr := wholeMessage(rest, err)
	checkReadSealedQuery(t, b, sq, wantErr)
	checkReadQueryPayload(t, b, sq, wantErr)
	want := sq.Head()
	if want.TemplateID != "" {
		want.Key = ""
	}
	checkRaw(t, "ReadQuery", b, (*Raw).ReadQuery, want, wantErr, func(parent obs.SpanID) []byte {
		sq.ParentSpan = parent
		return AppendSealedQuery(nil, &sq, WithTrace)
	})
	su, rest, err := DecodeSealedUpdate(b)
	checkReadSealedUpdate(t, b, su, rest, err)
	checkRaw(t, "ReadUpdate", b, (*Raw).ReadUpdate, su.Head(), wholeMessage(rest, err), func(parent obs.SpanID) []byte {
		su.ParentSpan = parent
		return AppendSealedUpdate(nil, &su)
	})
}

// checkReadSealedUpdate holds ReadSealedUpdate and ReadSealedUpdateFrom,
// then KeepIn or Own, to the decoder on one input, which it decoded to
// want, rest and wantErr: ReadSealedUpdate accepts the input only whole,
// ReadSealedUpdateFrom returns the same rest, the template ID is the
// table's own string when the table holds it, what the read lends — the
// payload and the parameters, still encoded — lies in the input and
// re-encodes to it, and once kept the update reads as the decoded one
// after the input was cleared.
func checkReadSealedUpdate(t *testing.T, b []byte, want SealedUpdate, rest []byte, wantErr error) {
	t.Helper()
	checkReadUpdate(t, "ReadSealedUpdate", b, want, wholeMessage(rest, wantErr), func(in []byte) (SealedUpdate, int, error) {
		su, err := ReadSealedUpdate(in, routerIDs)
		return su, len(in), err
	})
	checkReadUpdate(t, "ReadSealedUpdateFrom", b, want, wantErr, func(in []byte) (SealedUpdate, int, error) {
		su, after, err := ReadSealedUpdateFrom(in, routerIDs)
		if err == nil && !bytes.Equal(after, rest) {
			t.Fatalf("ReadSealedUpdateFrom(%x) left %x, the decoder %x", b, after, rest)
		}
		return su, len(in) - len(after), err
	})
}

// checkReadUpdate is checkReadSealedUpdate of one reader, read, which
// returns the update and the length of the input it read.
func checkReadUpdate(t *testing.T, name string, b []byte, want SealedUpdate, wantErr error, read func(in []byte) (SealedUpdate, int, error)) {
	t.Helper()
	in := bytes.Clone(b)
	got, n, err := read(in)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s(%x): err %v, the decoder: %v", name, b, err, wantErr)
	}
	if err != nil {
		return
	}
	checkLent(t, name, b[:n], in[:n], got.Opaque, want.Opaque)
	if cap(got.Opaque) != len(got.Opaque) {
		t.Fatalf("%s(%x): the payload's capacity runs past its end", name, b)
	}
	if id, ok := routerIDs[got.TemplateID]; ok && unsafe.StringData(id) != unsafe.StringData(got.TemplateID) {
		t.Fatalf("%s(%x): template ID %q is not the table's", name, b, got.TemplateID)
	}
	if got.Params != nil {
		t.Fatalf("%s(%x): parameters decoded before KeepIn", name, b)
	}
	if enc := AppendSealedUpdate(nil, &got); !bytes.Equal(enc, b[:n]) {
		t.Fatalf("%s(%x) re-encodes to %x", name, b, enc)
	}
	owned := got.Own()
	var buf UpdateBuf
	got.KeepIn(&buf)
	clear(in)
	wantP := want.Params
	want.Params = nil
	for _, kept := range []struct {
		name string
		su   SealedUpdate
	}{{"KeepIn", got}, {"Own", owned}} {
		gotP := kept.su.Params
		kept.su.Params = nil
		if !reflect.DeepEqual(kept.su, want) || !identicalParams(gotP, wantP) {
			t.Fatalf("%s(%x) then %s: %#v %v, decoded %#v %v (after the input was cleared)", name, b, kept.name, kept.su, gotP, want, wantP)
		}
	}
}

// checkReadSealedQuery holds ReadSealedQuery, then KeepIn, to the decoder
// on one input, whose decoded query is want: the template ID is the
// table's own string when the table holds it, and what the read lends —
// the key and the parameters, still encoded — lies in the input until
// KeepIn copies it, and decodes the parameters. A cache entry kept from
// the lent query (KeepEntry, as a bucket import keeps one) is the decoded
// query less its trace fields and payload.
func checkReadSealedQuery(t *testing.T, b []byte, want SealedQuery, wantErr error) {
	t.Helper()
	in := bytes.Clone(b)
	got, err := ReadSealedQuery(in, routerIDs)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ReadSealedQuery(%x): err %v, the decoder: %v", b, err, wantErr)
	}
	if err != nil {
		return
	}
	checkLent(t, "ReadSealedQuery", b, in, got.Opaque, want.Opaque)
	checkLentString(t, "ReadSealedQuery", b, in, got.Key, want.Key)
	if id, ok := routerIDs[got.TemplateID]; ok && unsafe.StringData(id) != unsafe.StringData(got.TemplateID) {
		t.Fatalf("ReadSealedQuery(%x): template ID %q is not the table's", b, got.TemplateID)
	}
	if got.Params != nil {
		t.Fatalf("ReadSealedQuery(%x): parameters decoded before KeepIn", b)
	}
	var none SealedResult
	n, m := EntrySize(&got, &none, nil)
	entry, _ := KeepEntry(&got, &none, nil, nil, make([]sqlparse.Value, n), make([]byte, m))
	var buf QueryBuf
	got.KeepIn(&buf)
	clear(in)
	wantEntry := want
	wantEntry.TraceID, wantEntry.ParentSpan, wantEntry.Opaque = obs.TraceID{}, obs.SpanID{}, nil
	entryP, wantEntryP := entry.Params, wantEntry.Params
	entry.Params, wantEntry.Params = nil, nil
	if !reflect.DeepEqual(entry, wantEntry) || !identicalParams(entryP, wantEntryP) {
		t.Fatalf("ReadSealedQuery(%x) then KeepEntry: %#v %v, decoded %#v %v (after the input was cleared)", b, entry, entryP, wantEntry, wantEntryP)
	}
	if !bytes.Equal(got.Opaque, want.Opaque) {
		t.Fatalf("ReadSealedQuery(%x) then KeepIn: payload %x, decoded %x (after the input was cleared)", b, got.Opaque, want.Opaque)
	}
	gotP, wantP := got.Params, want.Params
	got.Params, want.Params, got.Opaque, want.Opaque = nil, nil, nil, nil
	if !reflect.DeepEqual(got, want) || !identicalParams(gotP, wantP) {
		t.Fatalf("ReadSealedQuery(%x) then KeepIn: %#v %v, decoded %#v %v (after the input was cleared)", b, got, gotP, want, wantP)
	}
}

// checkLentString fails unless a string a reader lends, got, equals the
// decoded one, want, and lies in in, the input the reader was given.
func checkLentString(t *testing.T, name string, b, in []byte, got, want string) {
	t.Helper()
	if got != want {
		t.Fatalf("%s(%x): %q, decoded %q", name, b, got, want)
	}
	at := uintptr(unsafe.Pointer(unsafe.StringData(got)))
	if lo := uintptr(unsafe.Pointer(unsafe.SliceData(in))); got != "" && (at < lo || at+uintptr(len(got)) > lo+uintptr(len(in))) {
		t.Fatalf("%s(%x): %q is a copy, not lent", name, b, got)
	}
}

// checkReadQueryPayload holds ReadQueryPayload to the decoder on one
// input, whose decoded query is want.
func checkReadQueryPayload(t *testing.T, b []byte, want SealedQuery, wantErr error) {
	t.Helper()
	in := bytes.Clone(b)
	got, err := ReadQueryPayload(in)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ReadQueryPayload(%x): err %v, the decoder: %v", b, err, wantErr)
	}
	if err != nil {
		return
	}
	checkLent(t, "ReadQueryPayload", b, in, got.Opaque, want.Opaque)
	got.Opaque = nil
	if want := (SealedQuery{TraceID: want.TraceID, ParentSpan: want.ParentSpan}); !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadQueryPayload(%x): %#v, want its trace fields alone %#v", b, got, want)
	}
}

// checkLent fails unless a reader's payload, got, equals the decoded one
// and lies at the end of in, the input the reader was given.
func checkLent(t *testing.T, name string, b, in, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s(%x): opaque %x, decoded %x", name, b, got, want)
	}
	if len(got) > 0 && &got[0] != &in[len(in)-len(got)] {
		t.Fatalf("%s(%x): the opaque payload is a copy, not lent", name, b)
	}
}

func wholeMessage(rest []byte, err error) error {
	if err == nil && len(rest) != 0 {
		return errMalformed
	}
	return err
}

func checkRaw(t *testing.T, name string, b []byte, read func(*Raw, []byte, map[string]string) error, want Head, wantErr error, reencode func(parent obs.SpanID) []byte) {
	t.Helper()
	in := bytes.Clone(b)
	var r Raw
	err := read(&r, in, routerIDs)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s(%x): err %v, the decoder: %v", name, b, err, wantErr)
	}
	if err != nil {
		return
	}
	checkLent(t, name, b, in, r.Opaque, want.Opaque)
	if id, ok := routerIDs[r.TemplateID]; ok && unsafe.StringData(id) != unsafe.StringData(r.TemplateID) {
		t.Fatalf("%s(%x): template ID %q is not the table's", name, b, r.TemplateID)
	}
	if got := r.Append([]byte("prefix"), obs.SpanID{}); !bytes.Equal(got, append([]byte("prefix"), b...)) {
		t.Fatalf("%s(%x): Append without a parent gives %x", name, b, got)
	}
	router := obs.SpanID{Proc: 0x4f, Seq: 42}
	if got, want := r.Append([]byte("prefix"), router), append([]byte("prefix"), reencode(router)...); !bytes.Equal(got, want) {
		t.Fatalf("%s(%x): Append under a parent gives %x, re-encoded %x", name, b, got, want)
	}
	checkLentString(t, name, b, in, r.Key, want.Key)
	clear(in)
	got := r.Head
	got.Opaque, want.Opaque, got.Key, want.Key = nil, nil, "", ""
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s(%x): head %+v, decoded %+v (after the input was cleared)", name, b, got, want)
	}
}

// TestReadRawMatchesDecoders runs checkReadRaw on the corpus and every
// truncation of it, and pins what reading in place costs: nothing for a
// router reading a statement of a template it knows or a blind query, for
// a home reading a query, or for a node reading a query of a template it
// knows, and on a miss nothing either once the call it is kept in is warm
// — where decoding takes three.
func TestReadRawMatchesDecoders(t *testing.T) {
	for _, b := range append(sealedQueryForms(t), sealedUpdateForm(t)...) {
		for n := 0; n <= len(b); n++ {
			checkReadRaw(t, b[:n])
		}
	}
	sq, su, _ := sealedAt(t, template.ExpStmt)
	q, u := AppendSealedQuery(nil, &sq, WithTrace), AppendSealedUpdate(nil, &su)
	blindQ, _, _ := sealedAt(t, template.ExpBlind)
	blind := AppendSealedQuery(nil, &blindQ, WithTrace)
	var r Raw
	for _, c := range []struct {
		name string
		read func() error
		want float64
	}{
		{"Raw.ReadQuery", func() error { return r.ReadQuery(q, routerIDs) }, 0},
		{"Raw.ReadUpdate", func() error { return r.ReadUpdate(u, routerIDs) }, 0},
		{"Raw.ReadQuery of a blind query", func() error { return r.ReadQuery(blind, routerIDs) }, 0},
		{"Raw.ReadQuery of a template not in the table", func() error { return r.ReadQuery(q, nil) }, 1},
		{"ReadQueryPayload", func() error { _, err := ReadQueryPayload(q); return err }, 0},
		{"ReadSealedQuery", func() error { _, err := ReadSealedQuery(q, routerIDs); return err }, 0},
		{"ReadSealedQuery of a template not in the table", func() error { _, err := ReadSealedQuery(q, nil); return err }, 1},
		{"ReadSealedQuery and KeepIn warm memory", func() error {
			sq, err := ReadSealedQuery(q, routerIDs)
			sq.KeepIn(&keptQuery)
			return err
		}, 0},
		{"ReadSealedUpdate", func() error { _, err := ReadSealedUpdate(u, routerIDs); return err }, 0},
		{"ReadSealedUpdate and KeepIn warm memory", func() error {
			su, err := ReadSealedUpdate(u, routerIDs)
			su.KeepIn(&keptBuf)
			return err
		}, 0},
	} {
		if n := testing.AllocsPerRun(100, func() {
			if err := c.read(); err != nil {
				t.Fatal(err)
			}
		}); n != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, n, c.want)
		}
	}
}

// keptBuf and keptQuery are the warm memory TestReadRawMatchesDecoders
// keeps updates and queries in.
var (
	keptBuf   UpdateBuf
	keptQuery QueryBuf
)

// FuzzReadSealedUpdate holds the in-place update readers a node, a home
// and a replica run on every update they are sent to the decoder on
// arbitrary input: ReadSealedUpdate never panics and accepts exactly what
// DecodeSealedUpdate accepts with nothing left over, ReadSealedUpdateFrom
// what it accepts with what it leaves, and what they read, kept, is the
// decoded update (checkReadSealedUpdate).
func FuzzReadSealedUpdate(f *testing.F) {
	for _, b := range append(sealedUpdateForm(f), sealedQueryForms(f)...) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		su, rest, err := DecodeSealedUpdate(b)
		checkReadSealedUpdate(t, b, su, rest, err)
	})
}

// TestLendUpdateMatchesSealUpdate: an update sealed into scratch is the
// update SealUpdate seals — its fields, its payload's plaintext, and its
// encoding but for the trace ID — with its payload in the scratch, and
// sealing into warm scratch allocates nothing. KeepIn copies a lent update
// out of the scratch and the caller's parameter slice, its strings too.
func TestLendUpdateMatchesSealUpdate(t *testing.T) {
	c, app := testCodec(t, nil)
	params := []sqlparse.Value{sqlparse.IntVal(7), sqlparse.StringVal("4111"), sqlparse.StringVal("10001")}
	var s Scratch
	for _, id := range []string{"U1", "U2"} {
		tm := app.Update(id)
		ps := params[:tm.NumParams]
		want, err := c.SealUpdate(tm, ps)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.LendUpdate(tm, ps, &s)
		if err != nil {
			t.Fatal(err)
		}
		if !got.lent || &got.Opaque[0] != &s.opaque[0] {
			t.Fatalf("%s: LendUpdate's update is not lent from the scratch", id)
		}
		got.TraceID = want.TraceID
		if a, b := AppendSealedUpdate(nil, &got), AppendSealedUpdate(nil, &want); !bytes.Equal(a, b) {
			t.Fatalf("%s: LendUpdate encodes to %x, SealUpdate to %x", id, a, b)
		}
		var buf UpdateBuf
		got.KeepIn(&buf)
		for i := range s.opaque {
			s.opaque[i] ^= 0xA5
		}
		vals := slices.Clone(ps)
		for i := range ps {
			ps[i] = sqlparse.StringVal("\xa5")
		}
		if !bytes.Equal(got.Opaque, want.Opaque) || !identicalParams(got.Params, vals) {
			t.Fatalf("%s: kept %x %v after the scratch was overwritten, want %x %v", id, got.Opaque, got.Params, want.Opaque, vals)
		}
		copy(ps, vals)
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.LendUpdate(app.Update("U2"), params, &s); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("LendUpdate into warm scratch: %v allocations, want 0", n)
	}
}

// TestLendQueryMatchesSealQuery is TestLendUpdateMatchesSealUpdate for
// queries, at every exposure: a query sealed into scratch is the query
// SealQuery seals — its fields, its key and its encoding but for the trace
// ID — with its key and payload in the scratch, and sealing into warm
// scratch allocates nothing. KeepIn copies a lent query out of the scratch
// and the caller's parameter slice, its strings too.
func TestLendQueryMatchesSealQuery(t *testing.T) {
	for _, exp := range []template.Exposure{template.ExpBlind, template.ExpTemplate, template.ExpStmt, template.ExpView} {
		c, app := testCodec(t, map[string]template.Exposure{"Q1": exp, "Q2": exp})
		var s Scratch
		for _, q := range []struct {
			id    string
			param sqlparse.Value
		}{{"Q1", sqlparse.StringVal("kite")}, {"Q2", sqlparse.IntVal(7)}} {
			tm, ps := app.Query(q.id), []sqlparse.Value{q.param}
			want, err := c.SealQuery(tm, ps)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.LendQuery(tm, ps, &s)
			if err != nil {
				t.Fatal(err)
			}
			if !got.lent || &got.Opaque[0] != &s.opaque[0] || unsafe.StringData(got.Key) != &s.key[0] {
				t.Fatalf("%s %s: LendQuery's query is not lent from the scratch", exp, q.id)
			}
			got.TraceID = want.TraceID
			if a, b := AppendSealedQuery(nil, &got, WithTrace), AppendSealedQuery(nil, &want, WithTrace); !bytes.Equal(a, b) {
				t.Fatalf("%s %s: LendQuery encodes to %x, SealQuery to %x", exp, q.id, a, b)
			}
			var buf QueryBuf
			got.KeepIn(&buf)
			for _, b := range [][]byte{s.opaque, s.key} {
				for i := range b {
					b[i] ^= 0xA5
				}
			}
			vals := slices.Clone(want.Params) // want's are ps
			ps[0] = sqlparse.StringVal("\xa5")
			if got.Key != want.Key || !bytes.Equal(got.Opaque, want.Opaque) || !identicalParams(got.Params, vals) {
				t.Fatalf("%s %s: kept %q %x %v after the scratch was overwritten, want %q %x %v", exp, q.id, got.Key, got.Opaque, got.Params, want.Key, want.Opaque, vals)
			}
		}
		if raceEnabled {
			continue
		}
		ps := []sqlparse.Value{sqlparse.StringVal("kite")}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := c.LendQuery(app.Query("Q1"), ps, &s); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: LendQuery into warm scratch: %v allocations, want 0", exp, n)
		}
	}
}

// FuzzReadRaw runs checkReadRaw on arbitrary input: the readers a router,
// a node and a home run on every statement they are sent never panic and
// accept exactly what the decoders do. The seeds hold template IDs in the
// router's table (Q1, Q2) and out of it (Q9), and blind queries.
func FuzzReadRaw(f *testing.F) {
	for _, b := range append(sealedQueryForms(f), sealedUpdateForm(f)...) {
		f.Add(b)
	}
	f.Fuzz(checkReadRaw)
}

func seedSealed(f *testing.F, enc func(sq SealedQuery, su SealedUpdate, sr SealedResult) []byte) {
	f.Add([]byte{})
	for _, exp := range allExposures {
		f.Add(enc(sealedAt(f, exp)))
	}
}

// DecodeSealedResult consumes one sealed result: ReadSealedResult, then
// Own. No process decodes a result so — a node reads an answer in place
// and its cache keeps it (KeepEntry), a client opens it in place — so it
// lives here, the decoder the in-place reader is held to.
func DecodeSealedResult(b []byte) (SealedResult, []byte, error) {
	sr, rest, err := ReadSealedResult(b)
	if err != nil {
		return SealedResult{}, nil, err
	}
	return sr.Own(), rest, nil
}

func FuzzDecodeSealedResult(f *testing.F) {
	seedSealed(f, func(_ SealedQuery, _ SealedUpdate, sr SealedResult) []byte {
		return AppendSealedResult(nil, &sr)
	})
	f.Add(AppendSealedResult(nil, &SealedResult{Cipher: []byte{}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		in := append([]byte(nil), b...)
		sr, rest, err := DecodeSealedResult(in)
		if err != nil {
			return
		}
		checkCanonical(t, in, rest, func() []byte { return AppendSealedResult(nil, &sr) })
	})
}

// FuzzReadSealedResult holds the in-place result reader to the decoder:
// ReadSealedResult accepts exactly what DecodeSealedResult accepts,
// consumes as much, and its lent result owns, sizes and re-encodes as the
// decoded one does — and re-encodes to the input, which it lies in.
func FuzzReadSealedResult(f *testing.F) {
	seedSealed(f, func(_ SealedQuery, _ SealedUpdate, sr SealedResult) []byte {
		return AppendSealedResult(nil, &sr)
	})
	f.Add(AppendSealedResult(nil, &SealedResult{Cipher: []byte{}}))
	f.Add([]byte{resultPlain, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		in := bytes.Clone(b)
		lent, rest, err := ReadSealedResult(in)
		want, wantRest, wantErr := DecodeSealedResult(b)
		if (err == nil) != (wantErr == nil) || len(rest) != len(wantRest) {
			t.Fatalf("ReadSealedResult(%x): %d left, err %v; the decoder: %d left, err %v", b, len(rest), err, len(wantRest), wantErr)
		}
		if err != nil {
			return
		}
		if got := lent.Own(); !reflect.DeepEqual(got, want) {
			t.Fatalf("ReadSealedResult(%x) owned: %+v, decoded %+v", b, got, want)
		}
		if got, want := lent.Size(), want.Size(); got != want {
			t.Fatalf("ReadSealedResult(%x): Size %d, decoded %d", b, got, want)
		}
		enc := AppendSealedResult(nil, &lent)
		if wantEnc := AppendSealedResult(nil, &want); !bytes.Equal(enc, wantEnc) {
			t.Fatalf("ReadSealedResult(%x) re-encodes to %x, decoded to %x", b, enc, wantEnc)
		}
		if !bytes.Equal(enc, b[:len(b)-len(rest)]) {
			t.Fatalf("ReadSealedResult(%x) re-encodes to %x", b, enc)
		}
	})
}

// TestReadSealedResultLends pins what reading a result in place buys: no
// allocation, at any exposure, and a lent view result opens straight into
// the caller's result as the decoded one does.
func TestReadSealedResultLends(t *testing.T) {
	c, app := testCodec(t, map[string]template.Exposure{"Q2": template.ExpView})
	for _, exp := range allExposures {
		_, _, sr := sealedAt(t, exp)
		enc := AppendSealedResult(nil, &sr)
		if n := testing.AllocsPerRun(100, func() {
			if _, _, err := ReadSealedResult(enc); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%v: ReadSealedResult: %v allocations, want 0", exp, n)
		}
	}
	res := &engine.Result{Columns: []string{"toy_id"}, Vals: []sqlparse.Value{sqlparse.StringVal("kite")}, RowsScanned: 2}
	sealed := c.SealResult(app.Query("Q2"), res)
	enc := AppendSealedResult(nil, &sealed)
	lent, _, err := ReadSealedResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	box := new(slabBox)
	if err := c.OpenResultInto(app.Query("Q2"), lent, box); err != nil {
		t.Fatal(err)
	}
	clear(enc)
	if !reflect.DeepEqual(&box.res, res) {
		t.Errorf("lent view result opened to %+v, want %+v", &box.res, res)
	}
}
