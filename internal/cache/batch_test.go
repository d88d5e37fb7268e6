package cache

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dssp/internal/sqlparse"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// batchFixture pre-seals a workload that exercises every invalidation
// class: view-level and template-level queries, a blind query (hidden
// bucket), routed statement-level deletes, an ignorable insert, and a
// blind update. Sealing once and replaying into every cache under test
// keeps trace IDs and keys identical, so decision logs are comparable
// byte for byte.
type batchFixture struct {
	exps    map[string]template.Exposure
	queries []struct {
		q wire.SealedQuery
		r wire.SealedResult
	}
	updates []wire.SealedUpdate
}

func newBatchFixture(t testing.TB) *batchFixture {
	t.Helper()
	f := &batchFixture{exps: map[string]template.Exposure{
		"Q1": template.ExpTemplate,
		"Q3": template.ExpBlind,
		"U2": template.ExpBlind,
	}}
	_, codec, app := testStack(t, f.exps, Options{})
	add := func(id string, param sqlparse.Value, rows ...int64) {
		qt := app.Query(id)
		f.queries = append(f.queries, struct {
			q wire.SealedQuery
			r wire.SealedResult
		}{seal(t, codec, qt, param), codec.SealResult(qt, result(rows...))})
	}
	for i := int64(0); i < 4; i++ {
		add("Q1", sqlparse.StringVal(fmt.Sprintf("toy%d", i)), i)
	}
	for i := int64(0); i < 6; i++ {
		add("Q2", sqlparse.IntVal(i), 10+i)
	}
	for i := int64(0); i < 4; i++ {
		add("Q3", sqlparse.StringVal(fmt.Sprintf("152%02d", i)), 7)
	}
	sealU := func(id string, params ...sqlparse.Value) {
		su, err := codec.SealUpdate(app.Update(id), params)
		if err != nil {
			t.Fatal(err)
		}
		f.updates = append(f.updates, su)
	}
	// Deletes that hit stored entries, deletes that miss, one blind
	// update mid-stream (drops everything left), then deletes against the
	// emptied cache.
	sealU("U1", sqlparse.IntVal(0))
	sealU("U1", sqlparse.IntVal(1))
	sealU("U1", sqlparse.IntVal(999))
	sealU("U1", sqlparse.IntVal(2))
	sealU("U2", sqlparse.IntVal(1), sqlparse.StringVal("4111"), sqlparse.StringVal("00000"))
	sealU("U1", sqlparse.IntVal(3))
	sealU("U1", sqlparse.IntVal(4))
	sealU("U1", sqlparse.IntVal(998))
	sealU("U1", sqlparse.IntVal(5))
	sealU("U1", sqlparse.IntVal(997))
	if f.updates[4].TemplateID != "" {
		t.Fatal("U2 not blind")
	}
	return f
}

// populate loads the fixture's entries into a fresh cache.
func (f *batchFixture) populate(t testing.TB) *Cache {
	t.Helper()
	c, _, _ := testStack(t, f.exps, Options{DecisionLog: 4096})
	for _, s := range f.queries {
		c.Store(s.q, s.r, false)
	}
	return c
}

// TestOnUpdateBatchParity is the core equivalence check: applying the
// update stream through OnUpdateBatchCounts, at any batch size, must
// produce the same per-update invalidation counts, the same decision log
// (order included), the same surviving entries, and the same logical
// stats as the update-by-update oracle — while making no more bucket
// walks.
func TestOnUpdateBatchParity(t *testing.T) {
	f := newBatchFixture(t)

	seq := f.populate(t)
	var seqCounts []int
	for _, u := range f.updates {
		seqCounts = append(seqCounts, oracleOnUpdate(seq, u, false))
	}
	seqStats := seq.Stats()
	seqDecisions := seq.Decisions()
	seqDump := seq.Dump()

	for _, size := range []int{1, 2, 4, 32} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			c := f.populate(t)
			var counts []int
			for lo := 0; lo < len(f.updates); lo += size {
				hi := lo + size
				if hi > len(f.updates) {
					hi = len(f.updates)
				}
				counts = append(counts, c.OnUpdateBatchCounts(f.updates[lo:hi])...)
			}
			if !reflect.DeepEqual(counts, seqCounts) {
				t.Errorf("per-update counts = %v, sequential = %v", counts, seqCounts)
			}
			if got := c.Decisions(); !reflect.DeepEqual(got, seqDecisions) {
				t.Errorf("decision log diverged:\nbatch: %+v\nseq:   %+v", got, seqDecisions)
			}
			if got := c.Dump(); !reflect.DeepEqual(got, seqDump) {
				t.Errorf("surviving entries = %v, sequential = %v", got, seqDump)
			}
			st := c.Stats()
			if st.Invalidations != seqStats.Invalidations ||
				st.BucketsVisited != seqStats.BucketsVisited ||
				st.BucketsSkipped != seqStats.BucketsSkipped ||
				st.UpdatesSeen != seqStats.UpdatesSeen {
				t.Errorf("logical stats diverged: batch %+v, sequential %+v", st, seqStats)
			}
			if st.BucketWalks > seqStats.BucketWalks {
				t.Errorf("batch made %d bucket walks, sequential only %d", st.BucketWalks, seqStats.BucketWalks)
			}
			if size > 1 && st.BucketWalks >= seqStats.BucketWalks {
				t.Errorf("batch size %d amortized nothing: %d walks vs sequential %d",
					size, st.BucketWalks, seqStats.BucketWalks)
			}
		})
	}
}

// TestOnUpdateBatchEmptyAndSingleton pins the degenerate shapes: an empty
// batch is a no-op, and a singleton batch equals one oracle pass.
func TestOnUpdateBatchEmptyAndSingleton(t *testing.T) {
	f := newBatchFixture(t)
	c := f.populate(t)
	if counts := c.OnUpdateBatchCounts(nil); len(counts) != 0 {
		t.Errorf("empty batch returned counts %v", counts)
	}
	if st := c.Stats(); st.UpdatesSeen != 0 || st.BucketWalks != 0 {
		t.Errorf("empty batch did work: %+v", st)
	}
	n := c.OnUpdateBatchCounts(f.updates[:1])[0]
	seq := f.populate(t)
	if want := oracleOnUpdate(seq, f.updates[0], false); n != want {
		t.Errorf("singleton batch dropped %d, oracle %d", n, want)
	}
}

// linkedEntries walks both replacement queues and returns how many entries
// they hold. A queue whose length, links or flags disagree with the walk
// fails the test.
func linkedEntries(t testing.TB, c *Cache) int {
	t.Helper()
	c.lruMu.Lock()
	defer c.lruMu.Unlock()
	n := 0
	for _, q := range []*fifo{&c.small, &c.main} {
		walked := 0
		var prev *Entry
		for e := q.head; e != nil; prev, e = e, e.next {
			if e.prev != prev || !e.inLRU || e.inMain != (q == &c.main) {
				t.Fatalf("queue entry %s|%s: prev link or flags wrong (inLRU %v, inMain %v)",
					e.Query.TemplateID, e.Query.Key, e.inLRU, e.inMain)
			}
			walked++
		}
		if q.tail != prev || walked != q.len {
			t.Fatalf("queue walk found %d entries ending at %p; queue says %d ending at %p", walked, prev, q.len, q.tail)
		}
		n += walked
	}
	return n
}

// auditQueues checks the lock-protocol invariant at a quiescent point: on
// a bounded cache, bucket membership and queue membership must coincide
// exactly — more linked entries than cached ones means a dead entry was
// linked (the store/invalidation window), fewer that a live entry was
// lost — the entries gauge must agree with both, and none may exceed
// Capacity.
func auditQueues(t testing.TB, c *Cache) {
	t.Helper()
	if c.opts.Capacity <= 0 {
		t.Fatal("audit void: the cache is unbounded")
	}
	n := c.Len()
	if linked := linkedEntries(t, c); linked != n {
		t.Errorf("queues hold %d entries, cache holds %d (dead entry linked, or live entry lost)", linked, n)
	}
	if g := c.entries.Value(); g != int64(n) {
		t.Errorf("entries gauge = %d, Len() = %d", g, n)
	}
	if n > c.opts.Capacity {
		t.Errorf("Len = %d exceeds capacity %d", n, c.opts.Capacity)
	}
}

// TestDropAllBucketsStoreRace regression-tests Store racing blind
// invalidation. Pre-fix, dropAllBuckets released each shard lock
// mid-iteration to unlink LRU entries, and Store linked its entry into
// the LRU only after releasing the shard lock — so a blind pass landing
// between a store's bucket insert and its LRU link removed the entry
// from the bucket (a no-op unlink: the entry was not linked yet) and the
// late link then pushed a dead entry into the list, permanently. Traffic
// concentrates on one template (one shard) so the blocked invalidator
// acquires the lock the instant a store releases it, hitting the window
// constantly. Run under -race (CI does) this also covers the map- and
// list-access races of the old protocol.
func TestDropAllBucketsStoreRace(t *testing.T) {
	f := newBatchFixture(t)
	// Capacity far above the working set: the replacement machinery is live
	// but nothing evicts.
	c, _, _ := testStack(t, f.exps, Options{Capacity: 4096})
	blind := f.updates[4] // the sealed blind U2

	// Only Q2 entries: every store and every drop contends on Q2's shard.
	var q2 []struct {
		q wire.SealedQuery
		r wire.SealedResult
	}
	for _, s := range f.queries {
		if s.q.TemplateID == "Q2" {
			q2 = append(q2, s)
		}
	}

	var wg sync.WaitGroup
	const iters = 2000
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s := q2[(i*7+w*13)%len(q2)]
				c.Store(s.q, s.r, false)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.OnUpdate(blind)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/8; i++ {
			c.OnUpdateBatchCounts(f.updates)
		}
	}()
	wg.Wait()
	auditQueues(t, c)
}

// TestLookupInvalidateLRURace regression-tests the lookup half of the
// protocol: Lookup used to move the entry in the LRU list after releasing
// the shard lock, ordering the bump against concurrent invalidation by
// nothing but luck. A hit now moves nothing — it counts on the entry,
// inside the shard critical section — and the audit catches a lookup that
// links or unlinks anything.
func TestLookupInvalidateLRURace(t *testing.T) {
	f := newBatchFixture(t)
	c, _, _ := testStack(t, f.exps, Options{Capacity: 4096})
	blind := f.updates[4]

	var wg sync.WaitGroup
	const iters = 2000
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s := f.queries[(i*11+w*17)%len(f.queries)]
				c.Store(s.q, s.r, false)
			}
		}()
	}
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Lookup(f.queries[(i*7+w*13)%len(f.queries)].q)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if i%2 == 0 {
				c.OnUpdate(blind)
			} else {
				c.OnUpdate(f.updates[i%len(f.updates)])
			}
		}
	}()
	wg.Wait()
	auditQueues(t, c)
}

// TestOnUpdateBatchAllocBudget pins the allocation ceiling of the batch
// invalidation pass: a batch against a populated, surviving cache may
// allocate the returned counts slice plus a constant amount of prepared
// state per update — never anything per cached entry. The budget is a
// small constant factor above the measured cost, so pool warm-up noise
// passes while a per-entry regression (with 64 entries per bucket) fails
// by an order of magnitude.
func TestOnUpdateBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse; allocation counts are meaningless")
	}
	for _, size := range []int{1, 8, 32} {
		c, codec, app := testStack(t, stmtExposures(), Options{})
		for i := int64(0); i < 64; i++ {
			qt := app.Query("Q2")
			c.Store(seal(t, codec, qt, sqlparse.IntVal(i)), codec.SealResult(qt, result(i)), false)
		}
		us := make([]wire.SealedUpdate, size)
		for i := range us {
			su, err := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(int64(1_000_000 + i))})
			if err != nil {
				t.Fatal(err)
			}
			us[i] = su
		}
		c.OnUpdateBatchCounts(us) // warm pools and instrument caches
		allocs := testing.AllocsPerRun(50, func() { c.OnUpdateBatchCounts(us) })
		budget := float64(4*size + 8)
		if allocs > budget {
			t.Errorf("size=%d: OnUpdateBatchCounts allocated %.1f/op, budget %.0f", size, allocs, budget)
		}
		if c.Len() == 0 {
			t.Fatalf("size=%d: entries did not survive; budget measured empty buckets", size)
		}
	}
}

// BenchmarkOnUpdateBatch measures the amortization win: one batched pass
// over n updates versus n sequential passes, against a populated cache
// whose entries survive (statement inspection keeps them), so every
// iteration walks the same buckets.
func BenchmarkOnUpdateBatch(b *testing.B) {
	for _, size := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			c, codec, app := testStack(b, stmtExposures(), Options{})
			for i := int64(0); i < 64; i++ {
				qt := app.Query("Q2")
				c.Store(seal(b, codec, qt, sqlparse.IntVal(i)), codec.SealResult(qt, result(i)), false)
			}
			us := make([]wire.SealedUpdate, size)
			for i := range us {
				su, err := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(int64(1_000_000 + i))})
				if err != nil {
					b.Fatal(err)
				}
				us[i] = su
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.OnUpdateBatchCounts(us)
			}
			if c.Len() == 0 {
				b.Fatal("entries did not survive; benchmark walked empty buckets")
			}
		})
	}
}
