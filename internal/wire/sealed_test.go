package wire

import (
	"bytes"
	"reflect"
	"testing"

	"dssp/internal/engine"
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
	sq.ParentSpan = "client/1"
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
				want.TraceID, want.ParentSpan = "", ""
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
	// exposure, then a trace-ID length in the non-minimal form 0x80 0x00.
	if _, _, err := DecodeSealedQuery([]byte{2, 0x80, 0x00, 0, 0, 0, 0, 0, 0}, WithTrace); err == nil {
		t.Error("non-minimal uvarint accepted")
	}
	// exposure, empty trace, parent and template, then group 2^32.
	if _, _, err := DecodeSealedUpdate([]byte{2, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0}); err == nil {
		t.Error("group beyond int32 accepted")
	}
	if _, _, err := DecodeSealedResult([]byte{3}); err == nil {
		t.Error("unknown result tag accepted")
	}
}

func seedSealed(f *testing.F, enc func(sq SealedQuery, su SealedUpdate, sr SealedResult) []byte) {
	f.Add([]byte{})
	for _, exp := range allExposures {
		f.Add(enc(sealedAt(f, exp)))
	}
}

// FuzzDecodeSealedQuery fuzzes the query decoder, in both forms, against
// arbitrary input: it never panics, and what it accepts is canonical and
// free of its input.
func FuzzDecodeSealedQuery(f *testing.F) {
	seedSealed(f, func(sq SealedQuery, _ SealedUpdate, _ SealedResult) []byte {
		return AppendSealedQuery(nil, &sq, WithTrace)
	})
	seedSealed(f, func(sq SealedQuery, _ SealedUpdate, _ SealedResult) []byte {
		return AppendSealedQuery(nil, &sq, NoTrace)
	})
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, trace := range []bool{WithTrace, NoTrace} {
			in := append([]byte(nil), b...)
			sq, rest, err := DecodeSealedQuery(in, trace)
			if err != nil {
				continue
			}
			checkCanonical(t, in, rest, func() []byte { return AppendSealedQuery(nil, &sq, trace) })
		}
	})
}

func FuzzDecodeSealedUpdate(f *testing.F) {
	seedSealed(f, func(_ SealedQuery, su SealedUpdate, _ SealedResult) []byte {
		return AppendSealedUpdate(nil, &su)
	})
	f.Fuzz(func(t *testing.T, b []byte) {
		in := append([]byte(nil), b...)
		su, rest, err := DecodeSealedUpdate(in)
		if err != nil {
			return
		}
		checkCanonical(t, in, rest, func() []byte { return AppendSealedUpdate(nil, &su) })
	})
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
