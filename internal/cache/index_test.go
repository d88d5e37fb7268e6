package cache

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/encrypt"
	"dssp/internal/engine"
	"dssp/internal/invalidate"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// checkIndex checks the bucket index at a quiescent point: every entry of
// an indexed bucket sits in exactly one chain — the one of its key at the
// slot — or on the loose list when it has too few parameters, the links run
// both ways, no chain is empty, and nothing else is linked. A bucket
// without a slot links nothing.
func checkIndex(t testing.TB, c *Cache) {
	t.Helper()
	for _, s := range c.shards {
		s.mu.Lock()
		for id, b := range s.buckets {
			slot := newBucket(c.app.Query(id)).slot
			if b.slot != slot {
				t.Errorf("bucket %q: slot %+v, the template's is %+v", id, b.slot, slot)
			}
			seen := make(map[*Entry]bool, len(b.entries))
			walkChain := func(head *Entry, key *sqlparse.Key) {
				if head == nil {
					t.Errorf("bucket %q: an empty chain is kept", id)
				}
				var prev *Entry
				for e := head; e != nil; prev, e = e, e.ixNext {
					if seen[e] {
						t.Errorf("bucket %q: entry %q is linked twice", id, e.Query.Key)
						return
					}
					seen[e] = true
					if e.ixPrev != prev {
						t.Errorf("bucket %q: entry %q's back link is wrong", id, e.Query.Key)
					}
					if b.entries[e.Query.Key] != e {
						t.Errorf("bucket %q: a linked entry is not the bucket's", id)
					}
					k, keyed := b.keyOf(e)
					switch {
					case key == nil && (keyed || !e.loose):
						t.Errorf("bucket %q: entry %v on the loose list has key %v", id, e.Query.Params, k)
					case key != nil && (!keyed || k != *key || e.loose):
						t.Errorf("bucket %q: entry %v in the chain of %v has key %v (keyed %v)", id, e.Query.Params, *key, k, keyed)
					}
				}
			}
			if b.loose != nil {
				walkChain(b.loose, nil)
			}
			for k, head := range b.chains {
				walkChain(head, &k)
			}
			if slot.Pos < 0 && (b.chains != nil || b.loose != nil) {
				t.Errorf("bucket %q has no slot but links entries", id)
			}
			if slot.Pos >= 0 && len(seen) != len(b.entries) {
				t.Errorf("bucket %q: %d of its %d entries are indexed", id, len(seen), len(b.entries))
			}
		}
		s.mu.Unlock()
	}
}

// richToystore extends the paper's toystore with a template for every
// strategy path (top-k, MIN/MAX, COUNT(*), ranges, a join with an FK
// shield), as the invalidate package's tests do, plus a query whose slot
// is not its first parameter and whose slot column it compares twice, a
// modification that moves an entry's key (its post-image), and a deletion
// that binds its key beside a range.
func richToystore() *template.App {
	app := apps.Toystore()
	s := app.Schema
	app.Queries = append(app.Queries,
		template.MustNew("Q4", s, "SELECT toy_id, qty FROM toys WHERE toy_name=?"),
		template.MustNew("Q5", s, "SELECT toy_id, qty FROM toys ORDER BY qty DESC LIMIT 3"),
		template.MustNew("Q6", s, "SELECT MAX(qty) FROM toys"),
		template.MustNew("Q7", s, "SELECT toy_name FROM toys WHERE qty>?"),
		template.MustNew("Q8", s, "SELECT COUNT(*) FROM toys"),
		template.MustNew("Q9", s, "SELECT cust_name, number FROM customers, credit_card WHERE cust_id=cid AND zip_code=?"),
		template.MustNew("Q10", s, "SELECT MIN(qty) FROM toys"),
		template.MustNew("Q11", s, "SELECT toy_name FROM toys WHERE qty>=? AND qty<=?"),
		template.MustNew("Q12", s, "SELECT toy_id FROM toys WHERE qty>? AND toy_id=? AND toy_id=?"),
	)
	app.Updates = append(app.Updates,
		template.MustNew("U3", s, "INSERT INTO toys (toy_id, toy_name, qty) VALUES (?, ?, ?)"),
		template.MustNew("U4", s, "UPDATE toys SET qty=? WHERE toy_id=?"),
		template.MustNew("U5", s, "DELETE FROM toys WHERE qty<?"),
		template.MustNew("U6", s, "INSERT INTO customers (cust_id, cust_name) VALUES (?, ?)"),
		template.MustNew("U7", s, "UPDATE credit_card SET zip_code=? WHERE cid=?"),
		template.MustNew("U8", s, "UPDATE toys SET toy_name=? WHERE toy_id=? AND toy_name=?"),
		template.MustNew("U9", s, "DELETE FROM toys WHERE toy_id=? AND qty>?"),
	)
	return app
}

// indexValues are drawn for parameters and result cells: a small domain,
// so updates meet the entries they can change, and the values the probe
// key must treat as Compare does — 5 and 5.0, -0.0 and 0.0, NaN, the
// infinities, ±2^53 and one past it as int and float, NULL and "5".
var indexValues = []sqlparse.Value{
	sqlparse.IntVal(1), sqlparse.IntVal(2), sqlparse.IntVal(3), sqlparse.IntVal(5), sqlparse.FloatVal(5),
	sqlparse.FloatVal(math.Copysign(0, -1)), sqlparse.FloatVal(0), sqlparse.IntVal(0), sqlparse.FloatVal(2.5),
	sqlparse.FloatVal(math.NaN()), sqlparse.FloatVal(math.Inf(1)), sqlparse.FloatVal(math.Inf(-1)),
	sqlparse.IntVal(1 << 53), sqlparse.FloatVal(1 << 53), sqlparse.IntVal(1<<53 + 1), sqlparse.FloatVal(1<<53 + 2),
	sqlparse.IntVal(-1 << 53), sqlparse.FloatVal(-1 << 53), sqlparse.IntVal(-1<<53 - 1), sqlparse.FloatVal(-1<<53 - 2),
	sqlparse.Null(), sqlparse.StringVal("5"), sqlparse.StringVal("bear"),
}

// indexFixture is one application under one exposure assignment, with
// the invalidator both caches share.
type indexFixture struct {
	app   *template.App
	inv   *invalidate.Invalidator
	codec *wire.Codec
}

// indexFixtures builds the four benchmarks and richToystore, each under
// the parity mix of every class and under all-view and all-statement
// assignments, where every bucket is decided entry by entry.
func indexFixtures(t testing.TB) []indexFixture {
	var out []indexFixture
	kr := encrypt.MustNewKeyring(make([]byte, encrypt.KeySize))
	for _, name := range []string{"toystore", "auction", "bboard", "bookstore", "rich"} {
		var app *template.App
		if name == "rich" {
			app = richToystore()
		} else {
			b, err := apps.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			app = b.App()
		}
		inv := invalidate.New(app, core.Analyze(app, core.DefaultOptions()))
		for _, exp := range []template.Exposure{0, template.ExpView, template.ExpStmt} {
			exps := parityExposures(app)
			if exp != 0 {
				for id := range exps {
					exps[id] = exp
				}
			}
			out = append(out, indexFixture{app, inv, wire.NewCodec(app, kr, exps)})
		}
	}
	return out
}

// drawIndexParams draws a parameter list: usually the template's arity,
// sometimes short of it, rarely longer.
func drawIndexParams(rng *rand.Rand, n int) []sqlparse.Value {
	switch rng.Intn(10) {
	case 0:
		n = rng.Intn(n + 1)
	case 1:
		n++
	}
	ps := make([]sqlparse.Value, n)
	for i := range ps {
		ps[i] = indexValues[rng.Intn(len(indexValues))]
	}
	return ps
}

// maxIndexOps bounds the steps of one FuzzIndexedWalkMatchesScan input,
// so that an exec stays cheap however long the fuzzer grows an input, and
// so does minimizing one.
const maxIndexOps = 64

// FuzzIndexedWalkMatchesScan holds the bucket index to the scan it
// replaced: two caches take the same random sequence of stores,
// evictions, bucket exports, drops and imports, and updates, one by one
// and in batches; the production walk probes the index, the oracle
// decides every entry. After every step the counts and the surviving
// entries must agree and both indexes must hold every entry exactly
// once, and after every update step so must the decision logs, each
// sized to hold one step's decisions (an update decides at most once per
// bucket, plus once for the hidden-template bucket), so that every
// decision is compared once before the ring overwrites it.
func FuzzIndexedWalkMatchesScan(f *testing.F) {
	fixtures := indexFixtures(f)
	for i := range fixtures {
		for seed := int64(0); seed < 8; seed++ {
			ops := make([]byte, 16)
			rand.New(rand.NewSource(seed)).Read(ops)
			f.Add(uint8(i), uint8(seed*5), seed, ops)
		}
	}
	f.Fuzz(func(t *testing.T, fix, capacity uint8, seed int64, ops []byte) {
		if len(ops) > maxIndexOps {
			ops = ops[:maxIndexOps]
		}
		fx := fixtures[int(fix)%len(fixtures)]
		rng := rand.New(rand.NewSource(seed))
		opts := Options{Capacity: int(capacity % 16), DecisionLog: maxBatch * (len(fx.app.Queries) + 2)}
		c, oracle := New(fx.app, fx.inv, opts), New(fx.app, fx.inv, opts)
		var stored []wire.SealedQuery
		update := func() wire.SealedUpdate {
			ut := fx.app.Updates[rng.Intn(len(fx.app.Updates))]
			su, err := fx.codec.SealUpdate(ut, drawIndexParams(rng, ut.NumParams))
			if err != nil {
				t.Fatal(err)
			}
			return su
		}
		for step, op := range ops {
			switch op % 8 {
			case 0, 1, 2, 3: // a miss stored
				q := fx.app.Queries[rng.Intn(len(fx.app.Queries))]
				sq, err := fx.codec.SealQuery(q, drawIndexParams(rng, q.NumParams))
				if err != nil {
					t.Fatal(err)
				}
				res := &engine.Result{Columns: make([]string, len(q.OutAttrs))}
				for i := (1 + rng.Intn(4)) * len(q.OutAttrs); i > 0; i-- {
					res.Vals = append(res.Vals, indexValues[rng.Intn(len(indexValues))])
				}
				sr := fx.codec.SealResult(q, res)
				c.Store(sq, sr, false)
				oracle.Store(sq, sr, false)
				stored = append(stored, sq)
			case 4: // one update
				su := update()
				if got, want := c.OnUpdate(su), oracleOnUpdate(oracle, su, false); got != want {
					t.Fatalf("step %d: update %v invalidated %d, the scan %d", step, su.Params, got, want)
				}
			case 5: // a batch
				us := make([]wire.SealedUpdate, 1+rng.Intn(maxBatch))
				want := make([]int, len(us))
				for i := range us {
					us[i] = update()
					want[i] = oracleOnUpdate(oracle, us[i], false)
				}
				if got := c.OnUpdateBatchCounts(us); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: a batch invalidated %v, the scan %v", step, got, want)
				}
			case 6: // an eviction
				if len(stored) == 0 {
					continue
				}
				sq := stored[rng.Intn(len(stored))]
				for _, cc := range []*Cache{c, oracle} {
					s := cc.shardFor(sq.TemplateID)
					s.mu.Lock()
					var e *Entry
					if b := s.buckets[sq.TemplateID]; b != nil {
						e = b.entries[sq.Key]
					}
					s.mu.Unlock()
					if e != nil {
						cc.evict(e)
					}
				}
			case 7: // buckets migrated away and back
				ids := []string{fx.app.Queries[rng.Intn(len(fx.app.Queries))].ID, fx.app.Queries[rng.Intn(len(fx.app.Queries))].ID}
				moved := c.ExportBuckets(ids)
				if got, want := c.DropBuckets(ids), oracle.DropBuckets(ids); got != want || got != len(moved) {
					t.Fatalf("step %d: dropped %d, the scan's cache %d, exported %d", step, got, want, len(moved))
				}
				rng.Shuffle(len(moved), func(i, j int) { moved[i], moved[j] = moved[j], moved[i] })
				if got, want := c.ImportBuckets(moved), oracle.ImportBuckets(moved); got != want {
					t.Fatalf("step %d: imported %d, the scan's cache %d", step, got, want)
				}
			}
			if got, want := c.Dump(), oracle.Dump(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (op %d): %d entries survive, %d under the scan", step, op%8, len(got), len(want))
			}
			if op%8 == 4 || op%8 == 5 {
				if got, want := c.Decisions(), oracle.Decisions(); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: decision logs differ: %v, under the scan %v", step, got, want)
				}
			}
			checkIndex(t, c)
			checkIndex(t, oracle)
			if t.Failed() {
				t.FailNow()
			}
		}
		if got, want := c.Stats().Invalidations, oracle.Stats().Invalidations; got != want {
			t.Fatalf("invalidated %d, the scan %d", got, want)
		}
	})
}

// maxBatch is the most updates one FuzzIndexedWalkMatchesScan step
// applies.
const maxBatch = 4

// TestIndexEngaged checks that what the fuzzer compares is the index at
// work: a view-exposure bucket of colliding parameters holds chains of
// several entries and a loose list, and a deletion drops some of its
// entries through the probe, not all of them.
func TestIndexEngaged(t *testing.T) {
	app := richToystore()
	inv := invalidate.New(app, core.Analyze(app, core.DefaultOptions()))
	exps := map[string]template.Exposure{"Q2": template.ExpView, "U1": template.ExpStmt}
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), exps)
	c := New(app, inv, Options{})
	rng := rand.New(rand.NewSource(1))
	q2 := app.Query("Q2")
	for i := 0; i < 200; i++ {
		c.Store(seal(t, codec, q2, drawIndexParams(rng, q2.NumParams)...), codec.SealResult(q2, result(1)), false)
	}
	checkIndex(t, c)
	b := c.shardFor("Q2").buckets["Q2"]
	var lens []int
	for _, head := range b.chains {
		n := 0
		for e := head; e != nil; e = e.ixNext {
			n++
		}
		lens = append(lens, n)
	}
	sort.Ints(lens)
	if b.slot.Pos != 0 || b.loose == nil || len(lens) == 0 || lens[len(lens)-1] < 2 {
		t.Fatalf("Q2's bucket: slot %+v, loose list %v, chain lengths %v", b.slot, b.loose != nil, lens)
	}
	before := c.Len()
	su, err := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(5)})
	if err != nil {
		t.Fatal(err)
	}
	if n := c.OnUpdate(su); n == 0 || n == before {
		t.Fatalf("U1(5) dropped %d of %d entries: the probe should drop some, not all", n, before)
	}
	checkIndex(t, c)
}
