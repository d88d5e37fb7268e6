package wire

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"

	"dssp/internal/sqlparse"
)

// payloadCorpus is payload plaintexts of toystore statements — a query and
// an insertion with string parameters, a query with an integer one — and of
// a template the application does not hold.
func payloadCorpus() [][]byte {
	return [][]byte{
		appendPayload(nil, "Q1", []sqlparse.Value{sqlparse.StringVal("kite")}),
		appendPayload(nil, "Q2", []sqlparse.Value{sqlparse.IntVal(5)}),
		appendPayload(nil, "Q3", []sqlparse.Value{sqlparse.StringVal("")}),
		appendPayload(nil, "U1", []sqlparse.Value{sqlparse.IntVal(5)}),
		appendPayload(nil, "U2", []sqlparse.Value{sqlparse.IntVal(7), sqlparse.StringVal("4111"), sqlparse.StringVal("10001")}),
		appendPayload(nil, "Q9", []sqlparse.Value{sqlparse.StringVal("kite")}),
		appendPayload(nil, "Q1", nil),
	}
}

// lies reports whether s's bytes lie in b.
func lies(s string, b []byte) bool {
	at, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return at >= lo && at+uintptr(len(s)) <= lo+uintptr(cap(b))
}

// checkReadPayload holds the home's lending read to OpenPayload on one
// payload plaintext b: both accept it or both refuse it; an accepted one
// names the same template and the same parameters, and re-encodes to b.
// Its non-empty strings, a query's and an update's, lie in the scratch the
// payload was read into, and OpenPayload's, which survive the scratch
// being overwritten, do not.
func checkReadPayload(t *testing.T, c *Codec, b []byte) {
	t.Helper()
	opaque := c.kr.Seal(domOpaque, b)
	var plain []byte
	var params []sqlparse.Value
	got, err := c.ReadPayload(opaque, &plain, &params)
	want, wantParams, wantErr := c.OpenPayload(opaque)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ReadPayload(%x): err %v, OpenPayload: %v", b, err, wantErr)
	}
	if err != nil {
		return
	}
	if got != want {
		t.Fatalf("ReadPayload(%x): template %s, OpenPayload %s", b, got.ID, want.ID)
	}
	if !identicalParams(params, wantParams) {
		t.Fatalf("ReadPayload(%x): %v, OpenPayload %v", b, params, wantParams)
	}
	if enc := appendPayload(nil, got.ID, params); !bytes.Equal(enc, b) {
		t.Fatalf("ReadPayload(%x) re-encodes to %x", b, enc)
	}
	for _, v := range params {
		if v.Str != "" && !lies(v.Str, plain) {
			t.Fatalf("ReadPayload(%x) of %s: %q is a copy, not lent", b, got.ID, v.Str)
		}
		if lies(v.Str, opaque) {
			t.Fatalf("ReadPayload(%x): %q lies in the sealed payload", b, v.Str)
		}
	}
	owned := slices.Clone(wantParams)
	scratch := plain[:cap(plain)]
	for i := range scratch {
		scratch[i] ^= 0xA5
	}
	if !identicalParams(wantParams, owned) {
		t.Fatalf("OpenPayload(%x) of %s: %v after the scratch was overwritten, want %v", b, got.ID, wantParams, owned)
	}
}

func TestReadPayloadMatchesOpenPayload(t *testing.T) {
	c, _ := testCodec(t, nil)
	for _, b := range payloadCorpus() {
		checkReadPayload(t, c, b)
		for n := range b {
			checkReadPayload(t, c, b[:n])
		}
		checkReadPayload(t, c, append(bytes.Clone(b), 0))
	}
}

// FuzzReadPayload runs checkReadPayload on arbitrary payload plaintexts:
// the read the home server runs on every statement it executes never
// panics, accepts exactly what OpenPayload does, and lends every string.
func FuzzReadPayload(f *testing.F) {
	for _, b := range payloadCorpus() {
		f.Add(b)
	}
	f.Add([]byte{})
	c, _ := testCodec(f, nil)
	f.Fuzz(func(t *testing.T, b []byte) { checkReadPayload(t, c, b) })
}

// A statement read into warm scratch allocates nothing: a query's strings
// and an update's are lent alike.
func TestReadPayloadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	c, app := testCodec(t, nil)
	sq, err := c.SealQuery(app.Query("Q1"), []sqlparse.Value{sqlparse.StringVal("kite")})
	if err != nil {
		t.Fatal(err)
	}
	su, err := c.SealUpdate(app.Update("U2"), []sqlparse.Value{sqlparse.IntVal(7), sqlparse.StringVal("4111"), sqlparse.StringVal("10001")})
	if err != nil {
		t.Fatal(err)
	}
	var plain []byte
	var params []sqlparse.Value
	for _, c2 := range []struct {
		id     string
		opaque []byte
	}{{"Q1", sq.Opaque}, {"U2", su.Opaque}} {
		if n := testing.AllocsPerRun(100, func() {
			if tm, err := c.ReadPayload(c2.opaque, &plain, &params); err != nil || tm.ID != c2.id {
				t.Fatal(tm, err)
			}
		}); n != 0 {
			t.Errorf("ReadPayload of %s: %v allocations, want 0", c2.id, n)
		}
	}
}

// BenchmarkReadPayload is the home server's read of a forwarded query —
// decrypt, resolve the template, read a string parameter — into scratch
// warmed before the timer starts. It is gated in BENCH_allocs.json at 0 allocations.
func BenchmarkReadPayload(b *testing.B) {
	c, app := testCodec(b, nil)
	sq, err := c.SealQuery(app.Query("Q1"), []sqlparse.Value{sqlparse.StringVal("kite")})
	if err != nil {
		b.Fatal(err)
	}
	var plain []byte
	var params []sqlparse.Value
	if _, err := c.ReadPayload(sq.Opaque, &plain, &params); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadPayload(sq.Opaque, &plain, &params); err != nil {
			b.Fatal(err)
		}
	}
}
