package cache

import (
	"fmt"
	"sync/atomic"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/encrypt"
	"dssp/internal/invalidate"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// benchBBoard builds a cache over the bboard application (15 query
// templates — the widest of the three benchmarks) with every template at
// statement exposure, filled with perTemplate entries per query template.
func benchBBoard(b *testing.B, opts Options, perTemplate int) (*Cache, *wire.Codec, *template.App) {
	b.Helper()
	app := apps.NewBBoard().App()
	exps := make(map[string]template.Exposure)
	for _, q := range app.Queries {
		exps[q.ID] = template.ExpStmt
	}
	for _, u := range app.Updates {
		exps[u.ID] = template.ExpStmt
	}
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), exps)
	inv := invalidate.New(app, core.Analyze(app, core.DefaultOptions()))
	c := New(app, inv, opts)
	for _, q := range app.Queries {
		for i := int64(0); i < int64(perTemplate); i++ {
			params := make([]sqlparse.Value, q.NumParams)
			for p := range params {
				if q.ID == "Q9" { // u_nickname is the only string parameter
					params[p] = sqlparse.StringVal(fmt.Sprintf("nick%d", i))
				} else {
					params[p] = sqlparse.IntVal(i)
				}
			}
			c.Store(seal(b, codec, q, params...), codec.SealResult(q, result(i)), false)
		}
	}
	return c, codec, app
}

// sealSteadyU3 seals bboard's U3 (user registration) with a primary key and
// nickname disjoint from every cached entry: statement inspection proves
// DNI for all A > 0 buckets (Q5, Q9 by parameter disjointness; Q10 is
// FK-shielded), so OnUpdate invalidates nothing and the cache contents stay
// constant across benchmark iterations. The measured work is purely the
// invalidation scan — which is exactly what routing elides.
func sealSteadyU3(b *testing.B, codec *wire.Codec, app *template.App) wire.SealedUpdate {
	b.Helper()
	su, err := codec.SealUpdate(app.Update("U3"), []sqlparse.Value{
		sqlparse.IntVal(1 << 30), sqlparse.StringVal("steadynick"),
		sqlparse.StringVal("pw"), sqlparse.StringVal("e@x"), sqlparse.IntVal(0),
	})
	if err != nil {
		b.Fatal(err)
	}
	return su
}

// BenchmarkCacheOnUpdate measures one inline invalidation pass — what
// every deployment without a monitoring interval runs per update — over a
// populated cache: the routed walk consults the precomputed A > 0 index
// and visits only the union-relation buckets. BENCH_allocs.json budgets
// it at no allocations: the one-element batch stays on OnUpdate's stack
// and the update is prepared into the pooled plan.
func BenchmarkCacheOnUpdate(b *testing.B) {
	b.Run("routed", func(b *testing.B) {
		c, codec, app := benchBBoard(b, Options{}, 64)
		su := sealSteadyU3(b, codec, app)
		before := c.Len()
		if dropped := c.OnUpdate(su); dropped != 0 {
			b.Fatalf("steady-state update dropped %d entries", dropped)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.OnUpdate(su)
		}
		b.StopTimer()
		if c.Len() != before {
			b.Fatalf("cache drifted: %d -> %d entries", before, c.Len())
		}
	})
}

// BenchmarkCacheConcurrentLookup measures parallel read throughput against
// the sharded cache: every lookup is a hit and lookups from different query
// templates land on different stripes.
func BenchmarkCacheConcurrentLookup(b *testing.B) {
	benchConcurrentLookup(b, Options{})
}

// BenchmarkCacheBoundedLookup is the same body on a bounded cache whose
// capacity is above the entry count, so all that differs is what a hit does
// for the replacement policy: a count on the entry, under no lock the other
// stripes share. Run it with -cpu 1,2: two CPUs must not be slower than one
// (under the LRU list every hit took lruMu, and they were — 71 ns against
// 109). BENCH_allocs.json budgets it at no allocations.
func BenchmarkCacheBoundedLookup(b *testing.B) {
	benchConcurrentLookup(b, Options{Capacity: 1 << 20})
}

func benchConcurrentLookup(b *testing.B, opts Options) {
	c, codec, app := benchBBoard(b, opts, 64)
	var sealed []wire.SealedQuery
	for _, q := range app.Queries {
		for i := int64(0); i < 64; i++ {
			params := make([]sqlparse.Value, q.NumParams)
			for p := range params {
				if q.ID == "Q9" {
					params[p] = sqlparse.StringVal(fmt.Sprintf("nick%d", i))
				} else {
					params[p] = sqlparse.IntVal(i)
				}
			}
			sealed = append(sealed, seal(b, codec, q, params...))
		}
	}
	var cursor atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := cursor.Add(1) * 127 // spread goroutines across stripes
		for pb.Next() {
			if _, hit := c.Lookup(sealed[int(i)%len(sealed)]); !hit {
				b.Fatal("benchmark lookup missed")
			}
			i++
		}
	})
}

// BenchmarkOnUpdateLargeBucket measures one inline invalidation pass over
// a large statement-inspection bucket: bboard's U5 (UPDATE users SET
// u_rating=? WHERE u_id=?) against 4 000 cached instances of Q5 (… FROM
// users WHERE u_id=?), its only A > 0 query template. The update's key is
// outside every entry's, so the bucket index's probe names an empty chain
// and no entry is decided: the row prices the walk's fixed cost, which must
// not grow with the bucket. BENCH_allocs.json budgets it at no allocations
// and 20 000 ns; deciding all 4 000 entries, as the scan did, takes over
// 160 µs.
func BenchmarkOnUpdateLargeBucket(b *testing.B) {
	const entries = 4000
	c, codec, app := benchBBoard(b, Options{}, 0)
	q5 := app.Query("Q5")
	for i := int64(0); i < entries; i++ {
		c.Store(seal(b, codec, q5, sqlparse.IntVal(i)), codec.SealResult(q5, result(i)), false)
	}
	su, err := codec.SealUpdate(app.Update("U5"), []sqlparse.Value{sqlparse.IntVal(3), sqlparse.IntVal(1 << 30)})
	if err != nil {
		b.Fatal(err)
	}
	if dropped := c.OnUpdate(su); dropped != 0 || c.Len() != entries {
		b.Fatalf("steady-state update dropped %d of %d entries", dropped, entries)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.OnUpdate(su)
	}
	b.StopTimer()
	if c.Len() != entries {
		b.Fatalf("cache drifted: %d -> %d entries", entries, c.Len())
	}
}
