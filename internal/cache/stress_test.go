package cache

import (
	"fmt"
	"sync"
	"testing"

	"dssp/internal/obs"
	"dssp/internal/sqlparse"
	"dssp/internal/wire"
)

// TestConcurrentStress hammers the sharded cache from concurrent lookup,
// store, and invalidation workers and then audits every counter the cache
// maintains incrementally (per-shard tallies, the entries gauge, the
// eviction count, the replacement queues) against ground truth recomputed
// by walking the cache.
// Run under -race (CI does) this also proves the striped-lock design has
// no data races across the shard/replacement/decision-log lock domains.
func TestConcurrentStress(t *testing.T) {
	for _, capacity := range []int{0, 64} {
		capacity := capacity
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			c, codec, app := testStack(t, stmtExposures(), Options{Capacity: capacity})

			// Pre-seal everything so workers only exercise the cache.
			const variants = 128
			type stored struct {
				q wire.SealedQuery
				r wire.SealedResult
			}
			var queries []stored
			for _, spec := range []struct {
				id    string
				param func(i int64) sqlparse.Value
			}{
				{"Q1", func(i int64) sqlparse.Value { return sqlparse.StringVal(fmt.Sprintf("toy%d", i)) }},
				{"Q2", sqlparse.IntVal},
				{"Q3", func(i int64) sqlparse.Value { return sqlparse.StringVal(fmt.Sprintf("152%02d", i)) }},
			} {
				qt := app.Query(spec.id)
				for i := int64(0); i < variants; i++ {
					queries = append(queries, stored{
						q: seal(t, codec, qt, spec.param(i)),
						r: codec.SealResult(qt, result(i)),
					})
				}
			}
			var updates []wire.SealedUpdate
			for i := int64(0); i < variants; i++ {
				su, err := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(1_000_000 + i)})
				if err != nil {
					t.Fatal(err)
				}
				updates = append(updates, su)
				su2, err := codec.SealUpdate(app.Update("U2"), []sqlparse.Value{
					sqlparse.IntVal(2_000_000 + i), sqlparse.StringVal("4111"), sqlparse.StringVal("00000"),
				})
				if err != nil {
					t.Fatal(err)
				}
				updates = append(updates, su2)
			}

			const (
				lookupWorkers = 4
				storeWorkers  = 4
				updateWorkers = 2
				opsPerWorker  = 2000
				batchWorkers  = 1 // feed updates through OnUpdateBatchCounts
				batchSize     = 8
				blindWorkers  = 1 // blind passes drop every bucket of every shard
				blindOps      = opsPerWorker / 4
			)
			var wg sync.WaitGroup
			for w := 0; w < lookupWorkers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < opsPerWorker; i++ {
						c.Lookup(queries[(i*7+w*13)%len(queries)].q)
					}
				}()
			}
			for w := 0; w < storeWorkers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < opsPerWorker; i++ {
						s := queries[(i*11+w*17)%len(queries)]
						c.Store(s.q, s.r, false)
					}
				}()
			}
			for w := 0; w < updateWorkers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < opsPerWorker; i++ {
						c.OnUpdate(updates[(i*5+w*19)%len(updates)])
					}
				}()
			}
			for w := 0; w < batchWorkers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < opsPerWorker/batchSize; i++ {
						batch := make([]wire.SealedUpdate, batchSize)
						for j := range batch {
							batch[j] = updates[(i*batchSize+j*3+w*23)%len(updates)]
						}
						c.OnUpdateBatchCounts(batch)
					}
				}()
			}
			for w := 0; w < blindWorkers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					blind := wire.SealedUpdate{TraceID: obs.TraceID{Proc: 1, Seq: 1}}
					for i := 0; i < blindOps; i++ {
						c.OnUpdate(blind)
					}
				}()
			}
			wg.Wait()

			st := c.Stats()
			if got, want := st.Hits+st.Misses, lookupWorkers*opsPerWorker; got != want {
				t.Errorf("hits+misses = %d, want %d", got, want)
			}
			if got, want := st.Stores, storeWorkers*opsPerWorker; got != want {
				t.Errorf("stores = %d, want %d", got, want)
			}
			if got, want := st.UpdatesSeen, (updateWorkers+batchWorkers)*opsPerWorker+blindWorkers*blindOps; got != want {
				t.Errorf("updates seen = %d, want %d", got, want)
			}
			if st.BucketsVisited == 0 || st.BucketsSkipped == 0 {
				t.Errorf("routing stats flat: visited %d, skipped %d", st.BucketsVisited, st.BucketsSkipped)
			}

			// The entries gauge is maintained by increments; it must agree
			// exactly with a fresh walk of the shards once quiescent.
			n := 0
			c.Entries(func(*Entry) { n++ })
			if n != c.Len() {
				t.Errorf("Entries walked %d, Len() = %d", n, c.Len())
			}
			if g := c.entries.Value(); g != int64(c.Len()) {
				t.Errorf("entries gauge = %d, Len() = %d", g, c.Len())
			}
			if capacity > 0 {
				auditQueues(t, c)
				if st.Evictions == 0 {
					t.Error("bounded run saw no evictions")
				}
			} else if st.Evictions != 0 {
				t.Errorf("unbounded run evicted %d entries", st.Evictions)
			}
		})
	}
}
