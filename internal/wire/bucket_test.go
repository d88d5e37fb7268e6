package wire

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"dssp/internal/engine"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

func bucketFixtures() []BucketEntry {
	return []BucketEntry{
		{ // sealed result, exposed template, mixed params
			Query: SealedQuery{
				Exposure:   template.ExpStmt,
				TemplateID: "Q2",
				Group:      3,
				Params:     []sqlparse.Value{sqlparse.IntVal(5), sqlparse.StringVal("bear"), sqlparse.FloatVal(2.5)},
				Key:        "Q2\x005",
				Opaque:     []byte("opaque-cipher"),
			},
			Result:  SealedResult{Cipher: []byte("ciphertext")},
			Ordinal: 0,
		},
		{ // view-exposure plaintext result
			Query: SealedQuery{
				Exposure:   template.ExpView,
				TemplateID: "Q1",
				Key:        "Q1\x00bear",
			},
			Result: SealedResult{Result: &engine.Result{
				Columns: []string{"toy_id"},
				Rows:    [][]sqlparse.Value{{sqlparse.IntVal(7)}},
			}},
			Ordinal: 1,
		},
		{ // blind entry: no template, no result body
			Query: SealedQuery{
				Exposure: template.ExpBlind,
				Key:      "blind-token",
				Opaque:   []byte{0x00, 0xff, 0x01},
			},
			Ordinal: 12345,
		},
	}
}

func TestBucketEntriesRoundTrip(t *testing.T) {
	want := bucketFixtures()
	enc := AppendBucketEntries(nil, want)
	got, err := DecodeBucketEntries(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got: %+v\nwant: %+v", got, want)
	}
	// Decoded entries must not alias the encoding: the migration path
	// reuses request buffers after decode.
	for i := range enc {
		enc[i] = 0xAA
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("decoded entries alias the wire buffer")
	}
}

func TestBucketEntriesEmpty(t *testing.T) {
	enc := AppendBucketEntries(nil, nil)
	got, err := DecodeBucketEntries(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d entries from an empty stream", len(got))
	}
}

func TestBucketEntriesRejectMalformed(t *testing.T) {
	enc := AppendBucketEntries(nil, bucketFixtures())
	if _, err := DecodeBucketEntries(append(enc, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	for _, cut := range []int{1, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeBucketEntries(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// n=1, exposure, empty template/params/key/opaque, then result tag 9.
	if _, err := DecodeBucketEntries([]byte{1, 0, 0, 0, 0, 0, 0, 9}); err == nil {
		t.Error("unknown result tag accepted")
	}
}

func TestTemplateIDsRoundTrip(t *testing.T) {
	for _, ids := range [][]string{nil, {"Q1"}, {"Q1", "Q2", "a long template identifier"}} {
		got, err := DecodeTemplateIDs(AppendTemplateIDs(nil, ids))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ids) {
			t.Fatalf("round trip %v -> %v", ids, got)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("round trip %v -> %v", ids, got)
			}
		}
	}
	if _, err := DecodeTemplateIDs(append(AppendTemplateIDs(nil, []string{"Q1"}), 'x')); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// allocatedBy reports the heap bytes fn allocates. The import path is fed
// by the untrusted tier, so what a decoder may allocate has to be bounded
// by what it was sent — whatever counts the input claims.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeAllocBound is generous — an entry is ~21 B in memory per wire byte
// at its emptiest, a NULL result value 40 — and still a thousandth of what
// a forged count could ask for; the constant covers the runtime's own
// allocations around the call.
func decodeAllocBound(inputLen int) uint64 { return 256*uint64(inputLen) + 64<<10 }

// FuzzDecodeBucketEntries covers the node's bucket-import body: whatever
// a peer (or anyone who can reach the node) posts, the decoder must not
// panic, must not allocate beyond a multiple of the input's length, and
// must accept only the canonical encoding of what it returns.
func FuzzDecodeBucketEntries(f *testing.F) {
	enc := AppendBucketEntries(nil, bucketFixtures())
	f.Add(enc)
	f.Add(AppendBucketEntries(nil, nil))
	f.Add(append(bytes.Clone(enc), 0))                     // trailing byte
	f.Add(enc[:1])                                         // truncated: count only
	f.Add(enc[:len(enc)/2])                                // truncated mid-entry
	f.Add(enc[:len(enc)-1])                                // truncated ordinal
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 9})                  // unknown result tag
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})            // forged count, no entries
	f.Add(append([]byte{0xff, 0xff, 0x03}, enc[1:]...))    // forged count over real entries
	f.Add(append([]byte{0x80, 0x00}, make([]byte, 16)...)) // non-minimal count
	f.Fuzz(func(t *testing.T, b []byte) {
		var entries []BucketEntry
		var err error
		if n, bound := allocatedBy(func() { entries, err = DecodeBucketEntries(b) }), decodeAllocBound(len(b)); n > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(b), n, bound)
		}
		if err != nil {
			return
		}
		if cap(entries) > len(b)/minEntryBytes {
			t.Fatalf("%d bytes pre-allocated %d entries; an entry is at least %d bytes", len(b), cap(entries), minEntryBytes)
		}
		if !bytes.Equal(AppendBucketEntries(nil, entries), b) {
			t.Fatalf("accepted stream is not canonical: %x", b)
		}
	})
}

// FuzzDecodeTemplateIDs is the same contract for the bucket export and
// drop request body.
func FuzzDecodeTemplateIDs(f *testing.F) {
	enc := AppendTemplateIDs(nil, []string{"Q1", "Q2", "a long template identifier"})
	f.Add(enc)
	f.Add(AppendTemplateIDs(nil, nil))
	f.Add(append(bytes.Clone(enc), 'x'))        // trailing byte
	f.Add(enc[:len(enc)-3])                     // truncated string
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // forged count
	f.Add([]byte{3, 2, 'Q', '1'})               // count past the last string
	f.Fuzz(func(t *testing.T, b []byte) {
		var ids []string
		var err error
		if n, bound := allocatedBy(func() { ids, err = DecodeTemplateIDs(b) }), decodeAllocBound(len(b)); n > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(b), n, bound)
		}
		if err != nil {
			return
		}
		if cap(ids) > len(b) {
			t.Fatalf("%d bytes pre-allocated %d ids", len(b), cap(ids))
		}
		if !bytes.Equal(AppendTemplateIDs(nil, ids), b) {
			t.Fatalf("accepted list is not canonical: %x", b)
		}
	})
}
