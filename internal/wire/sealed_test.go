package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

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
		Rows:        [][]sqlparse.Value{{sqlparse.IntVal(5), sqlparse.StringVal("kite\x00")}, {sqlparse.Null(), sqlparse.FloatVal(2.5)}},
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

// referenceDecodeOpaque is decodeBytes for the statement payload, whose
// empty encoding means absent.
func referenceDecodeOpaque(b []byte) ([]byte, []byte, error) {
	opaque, rest, err := decodeBytes(b)
	if len(opaque) == 0 {
		opaque = nil
	}
	return opaque, rest, err
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
		if va.Kind != vb.Kind || va.Int != vb.Int || va.Str != vb.Str ||
			math.Float64bits(va.Float) != math.Float64bits(vb.Float) {
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

// checkReadRaw holds the in-place readers to the decoders on one input:
// ReadQuery and ReadUpdate accept exactly what DecodeSealedQuery (WithTrace)
// and DecodeSealedUpdate accept with nothing left over; the head is the
// decoded statement's, and its strings do not alias the input; Append
// without a parent gives the input back, and with one the statement
// re-encoded under that parent, written over the field in place after
// whatever dst held.
func checkReadRaw(t *testing.T, b []byte) {
	t.Helper()
	sq, rest, err := DecodeSealedQuery(b, WithTrace)
	checkRaw(t, "ReadQuery", b, (*Raw).ReadQuery, sq.Head(), wholeMessage(rest, err), func(parent obs.SpanID) []byte {
		sq.ParentSpan = parent
		return AppendSealedQuery(nil, &sq, WithTrace)
	})
	su, rest, err := DecodeSealedUpdate(b)
	checkRaw(t, "ReadUpdate", b, (*Raw).ReadUpdate, su.Head(), wholeMessage(rest, err), func(parent obs.SpanID) []byte {
		su.ParentSpan = parent
		return AppendSealedUpdate(nil, &su)
	})
}

func wholeMessage(rest []byte, err error) error {
	if err == nil && len(rest) != 0 {
		return errMalformed
	}
	return err
}

func checkRaw(t *testing.T, name string, b []byte, read func(*Raw, []byte) error, want Head, wantErr error, reencode func(parent obs.SpanID) []byte) {
	t.Helper()
	in := bytes.Clone(b)
	var r Raw
	err := read(&r, in)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s(%x): err %v, the decoder: %v", name, b, err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(r.Opaque, want.Opaque) {
		t.Fatalf("%s(%x): opaque %x, decoded %x", name, b, r.Opaque, want.Opaque)
	}
	if got := r.Append([]byte("prefix"), obs.SpanID{}); !bytes.Equal(got, append([]byte("prefix"), b...)) {
		t.Fatalf("%s(%x): Append without a parent gives %x", name, b, got)
	}
	router := obs.SpanID{Proc: 0x4f, Seq: 42}
	if got, want := r.Append([]byte("prefix"), router), append([]byte("prefix"), reencode(router)...); !bytes.Equal(got, want) {
		t.Fatalf("%s(%x): Append under a parent gives %x, re-encoded %x", name, b, got, want)
	}
	clear(in)
	got := r.Head
	got.Opaque, want.Opaque = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s(%x): head %+v, decoded %+v (after the input was cleared)", name, b, got, want)
	}
}

// TestReadRawMatchesDecoders runs checkReadRaw on the corpus and every
// truncation of it, and pins what reading in place costs: one allocation,
// the head's strings, where decoding takes three.
func TestReadRawMatchesDecoders(t *testing.T) {
	for _, b := range append(sealedQueryForms(t), sealedUpdateForm(t)...) {
		for n := 0; n <= len(b); n++ {
			checkReadRaw(t, b[:n])
		}
	}
	sq, su, _ := sealedAt(t, template.ExpStmt)
	q, u := AppendSealedQuery(nil, &sq, WithTrace), AppendSealedUpdate(nil, &su)
	var r Raw
	for name, read := range map[string]func() error{
		"ReadQuery":  func() error { return r.ReadQuery(q) },
		"ReadUpdate": func() error { return r.ReadUpdate(u) },
	} {
		if n := testing.AllocsPerRun(100, func() {
			if err := read(); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Errorf("%s: %v allocations, want <= 1", name, n)
		}
	}
}

// FuzzReadRaw runs checkReadRaw on arbitrary input: the reader a router
// runs on every statement it forwards never panics and accepts exactly
// what the decoders do.
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
