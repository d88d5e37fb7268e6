package cache

import (
	"reflect"
	"testing"

	"dssp/internal/obs"
	"dssp/internal/sqlparse"
	"dssp/internal/wire"
)

func TestExportBucketsOrdinalsFollowEvictionOrder(t *testing.T) {
	c, codec, app := testStack(t, nil, Options{Capacity: 4})
	q := app.Query("Q2")
	store := func(i int64) {
		c.Store(seal(t, codec, q, sqlparse.IntVal(i)), codec.SealResult(q, result(i*10)), false)
	}
	for i := int64(0); i < 4; i++ {
		store(i)
	}
	// Hit entry 0, then overflow: 0 is promoted to main and 1 evicted, so
	// small holds 2, 3, 4 (oldest first) and main holds 0, the last to go.
	if _, hit := c.Lookup(seal(t, codec, q, sqlparse.IntVal(0))); !hit {
		t.Fatal("warm entry missing")
	}
	store(4)
	entries := c.ExportBuckets([]string{"Q2"})
	var got []int64
	for i, e := range entries {
		if e.Ordinal != i {
			t.Errorf("entry %d has ordinal %d; export must be sorted by ordinal", i, e.Ordinal)
		}
		got = append(got, e.Query.Params[0].Int)
	}
	if want := []int64{2, 3, 4, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("exported in order %v, want eviction order %v (small oldest first, then main)", got, want)
	}
	// Export is a copy: the source cache still serves every entry.
	if c.Len() != 4 {
		t.Errorf("export disturbed the source: Len = %d, want 4", c.Len())
	}
}

func TestImportBucketsSkipsExistingAndIsNotAStore(t *testing.T) {
	src, codec, app := testStack(t, nil, Options{})
	q := app.Query("Q2")
	for i := int64(0); i < 3; i++ {
		sq := seal(t, codec, q, sqlparse.IntVal(i))
		src.Store(sq, codec.SealResult(q, result(i)), false)
	}
	exported := src.ExportBuckets([]string{"Q2"})

	dst, _, _ := testStack(t, nil, Options{})
	// Pre-earn one of the keys on the destination: its local copy wins.
	localSQ := seal(t, codec, q, sqlparse.IntVal(1))
	dst.Store(localSQ, codec.SealResult(q, result(999)), false)
	statsBefore := dst.Stats()

	if got := dst.ImportBuckets(exported); got != 2 {
		t.Fatalf("imported %d, want 2 (one key already held)", got)
	}
	if res, hit := dst.Lookup(localSQ); !hit || res.Result.Rows[0][0].Int != 999 {
		t.Error("import overwrote the destination's local copy")
	}
	for _, i := range []int64{0, 2} {
		if _, hit := dst.Lookup(seal(t, codec, q, sqlparse.IntVal(i))); !hit {
			t.Errorf("migrated entry %d does not hit on the destination", i)
		}
	}
	statsAfter := dst.Stats()
	if statsAfter.Stores != statsBefore.Stores {
		t.Errorf("import counted %d stores; migration is bookkeeping, not cache activity",
			statsAfter.Stores-statsBefore.Stores)
	}
}

// No cache can store an empty result, so the migrated one is built by hand:
// a peer that sends one anyway is refused as Store would refuse it.
func TestImportBucketsRespectsEmptyResultPolicy(t *testing.T) {
	dst, codec, app := testStack(t, nil, Options{})
	q := app.Query("Q2")
	empty := wire.BucketEntry{Query: seal(t, codec, q, sqlparse.IntVal(9)), Result: codec.SealResult(q, result())}
	if got := dst.ImportBuckets([]wire.BucketEntry{empty}); got != 0 || dst.Len() != 0 {
		t.Errorf("imported %d empty-result entries (Len %d); the cache rejects them", got, dst.Len())
	}
}

func TestDropBucketsRemovesWithoutDecisions(t *testing.T) {
	c, codec, app := testStack(t, nil, Options{})
	q2, q1 := app.Query("Q2"), app.Query("Q1")
	for i := int64(0); i < 3; i++ {
		sq := seal(t, codec, q2, sqlparse.IntVal(i))
		c.Store(sq, codec.SealResult(q2, result(i)), false)
	}
	keep := seal(t, codec, q1, sqlparse.StringVal("bear"))
	c.Store(keep, codec.SealResult(q1, result(1)), false)

	decisionsBefore := len(c.Decisions())
	if got := c.DropBuckets([]string{"Q2", "Q2", "missing"}); got != 3 {
		t.Fatalf("dropped %d, want 3 (duplicate and unknown IDs are no-ops)", got)
	}
	if len(c.Decisions()) != decisionsBefore {
		t.Error("drop recorded decisions; rehoming is not invalidation")
	}
	if _, hit := c.Lookup(seal(t, codec, q2, sqlparse.IntVal(0))); hit {
		t.Error("dropped entry still hits")
	}
	if _, hit := c.Lookup(keep); !hit {
		t.Error("unrelated bucket was dropped")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// A bounded destination keeps its capacity invariant during import and
// extends the sender's eviction order: the least-recent migrated entries
// are the ones evicted.
func TestImportBucketsBoundedEviction(t *testing.T) {
	src, codec, app := testStack(t, nil, Options{Capacity: 16})
	q := app.Query("Q2")
	for i := int64(0); i < 6; i++ {
		sq := seal(t, codec, q, sqlparse.IntVal(i))
		src.Store(sq, codec.SealResult(q, result(i)), false)
	}
	exported := src.ExportBuckets([]string{"Q2"})

	dst, _, _ := testStack(t, nil, Options{Capacity: 4})
	dst.ImportBuckets(exported)
	if dst.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", dst.Len())
	}
	// Entries 0 and 1 were least recent at the source; they are the ones
	// sacrificed at the bounded destination.
	for _, i := range []int64{4, 5} {
		if _, hit := dst.Lookup(seal(t, codec, q, sqlparse.IntVal(i))); !hit {
			t.Errorf("most-recent migrated entry %d was evicted", i)
		}
	}
	for _, i := range []int64{0, 1} {
		if _, hit := dst.Lookup(seal(t, codec, q, sqlparse.IntVal(i))); hit {
			t.Errorf("least-recent migrated entry %d survived over fresher ones", i)
		}
	}
}

func TestImportCounterRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	c, codec, app := testStack(t, nil, Options{Obs: reg})
	q := app.Query("Q2")
	src, _, _ := testStack(t, nil, Options{})
	sq := seal(t, codec, q, sqlparse.IntVal(1))
	src.Store(sq, codec.SealResult(q, result(1)), false)
	c.ImportBuckets(src.ExportBuckets([]string{"Q2"}))
	if got := reg.Counter(obs.MCacheImported).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MCacheImported, got)
	}
}
