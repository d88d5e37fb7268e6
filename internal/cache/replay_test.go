package cache_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/simrun"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
	"dssp/internal/workload"
)

const (
	replayUsers    = 40
	replayWarm     = 12000 // statements before hits are counted
	replayMeasured = 28000
	replayCapacity = 500
)

// replayScript is a seeded bookstore session script, pages taken round
// robin and flattened to statements. Sessions draw fresh keys from the
// benchmark, so the script is generated once and replayed.
func replayScript(t *testing.T, b *apps.Bookstore, seed int64) []workload.Op {
	t.Helper()
	replayDB(t, b, seed) // resets the benchmark's fresh-key allocators
	sessions := make([]workload.Session, replayUsers)
	for i := range sessions {
		sessions[i] = b.NewSession(rand.New(rand.NewSource(seed*1_000_003 + int64(i) + 1)))
	}
	var ops []workload.Op
	for p := 0; len(ops) < replayWarm+replayMeasured; p++ {
		ops = append(ops, sessions[p%replayUsers].NextPage()...)
	}
	return ops[:replayWarm+replayMeasured]
}

func replayDB(t *testing.T, b *apps.Bookstore, seed int64) *storage.Database {
	t.Helper()
	db := storage.NewDatabase(b.App().Schema)
	if err := b.Populate(db, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	return db
}

// replayEvent is what a replacement policy sees of the script: a query for
// a key (whether the unbounded cache hit it, and whether the result is one
// a cache stores), or the invalidation of a key.
type replayEvent struct {
	key        string
	invalidate bool
	hit, rows  bool
}

func key(tmpl string, params []sqlparse.Value) string { return tmpl + "|" + storage.Key(params) }

func anys(vals []sqlparse.Value) []interface{} {
	out := make([]interface{}, len(vals))
	for i, v := range vals {
		out[i] = v
	}
	return out
}

// replayClient is the in-process deployment over a freshly populated
// master database, with the node's cache bounded to capacity.
func replayClient(t *testing.T, b *apps.Bookstore, seed int64, capacity int) *dssp.Client {
	t.Helper()
	app := b.App()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)),
		simrun.UniformExposures(app, template.ExpView))
	c := dssp.NewClient(app, codec, replayDB(t, b, seed))
	c.Node = dssp.NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{Capacity: capacity})
	return c
}

// replayRun executes the script and returns the hit rate over its measured
// part. With events set it also records the event stream, reading off the
// cache what each update invalidated.
func replayRun(t *testing.T, c *dssp.Client, ops []workload.Op, events *[]replayEvent) float64 {
	t.Helper()
	cached := make(map[string]int) // key → generation it was last seen in the cache
	hits, queries := 0, 0
	for i, op := range ops {
		if op.Template.Kind != template.KQuery {
			_, dropped, err := c.Update(op.Template, anys(op.Params)...)
			if err != nil {
				t.Fatalf("%s%v: %v", op.Template.ID, op.Params, err)
			}
			if events == nil || dropped == 0 {
				continue
			}
			c.Node.Cache.Entries(func(e *cache.Entry) { cached[key(e.Query.TemplateID, e.Query.Params)] = i })
			var gone []string
			for k, gen := range cached {
				if gen != i {
					gone = append(gone, k)
					delete(cached, k)
				}
			}
			slices.Sort(gone)
			for _, k := range gone {
				*events = append(*events, replayEvent{key: k, invalidate: true})
			}
			continue
		}
		res, err := c.Query(op.Template, anys(op.Params)...)
		if err != nil {
			t.Fatalf("%s%v: %v", op.Template.ID, op.Params, err)
		}
		if i >= replayWarm {
			queries++
			if res.Outcome.Hit {
				hits++
			}
		}
		if events != nil {
			k := key(op.Template.ID, op.Params)
			rows := res.Result.Len() > 0
			if rows {
				cached[k] = i
			}
			*events = append(*events, replayEvent{key: k, hit: res.Outcome.Hit, rows: rows})
		}
	}
	return float64(hits) / float64(queries)
}

// modelHitRate feeds the event stream to a cache of replayCapacity keys
// whose victim evict picks, and returns its hit rate over the queries past
// the first warmQueries. use is called with the index of the event for
// every query of a cached or newly stored key.
func modelHitRate(t *testing.T, events []replayEvent, warmQueries int, use func(k string, at int), evict func(cached map[string]bool) string) float64 {
	t.Helper()
	cached := make(map[string]bool)
	hits, queries := 0, 0
	for at, ev := range events {
		if ev.invalidate {
			delete(cached, ev.key)
			continue
		}
		hit := cached[ev.key]
		if hit && !ev.hit {
			t.Fatalf("event %d: the model holds %s, which the unbounded cache had lost", at, ev.key)
		}
		if hit || ev.rows {
			cached[ev.key] = true
			use(ev.key, at)
			if len(cached) > replayCapacity {
				delete(cached, evict(cached))
			}
		}
		if queries++; queries > warmQueries && hit {
			hits++
		}
	}
	return float64(hits) / float64(queries-warmQueries)
}

// TestReplacementUnderInvalidation is the evidence that the policy, not
// the seed, is what lifts embed_evict: one bookstore script under uniform
// view exposure runs through dssp.NewClient unbounded and at 500 entries,
// and the unbounded run's event stream — queries, and the invalidations
// between them — goes to a model LRU and to a clairvoyant evictor, which
// drops the key whose next use before its next invalidation is farthest
// (never, for most). The bounded cache must beat LRU by five points of hit
// rate and cannot beat the clairvoyant.
func TestReplacementUnderInvalidation(t *testing.T) {
	const seed = 11
	b := apps.NewBookstore()
	ops := replayScript(t, b, seed)

	var events []replayEvent
	unbounded := replayRun(t, replayClient(t, b, seed, 0), ops, &events)
	bounded := replayRun(t, replayClient(t, b, seed, replayCapacity), ops, nil)

	warmQueries := 0
	for _, op := range ops[:replayWarm] {
		if op.Template.Kind == template.KQuery {
			warmQueries++
		}
	}

	lastUse := make(map[string]int)
	lru := modelHitRate(t, events, warmQueries,
		func(k string, at int) { lastUse[k] = at },
		func(cached map[string]bool) string {
			victim, oldest := "", math.MaxInt
			for k := range cached {
				if lastUse[k] < oldest {
					victim, oldest = k, lastUse[k]
				}
			}
			return victim
		})

	// nextUse[i] is the index of the next query of event i's key, or
	// MaxInt when the key is invalidated first or never asked for again.
	nextUse := make([]int, len(events))
	upcoming := make(map[string]int)
	for i := len(events) - 1; i >= 0; i-- {
		ev := events[i]
		if ev.invalidate {
			delete(upcoming, ev.key)
			continue
		}
		nextUse[i] = math.MaxInt
		if n, ok := upcoming[ev.key]; ok {
			nextUse[i] = n
		}
		upcoming[ev.key] = i
	}
	next := make(map[string]int)
	clairvoyant := modelHitRate(t, events, warmQueries,
		func(k string, at int) { next[k] = nextUse[at] },
		func(cached map[string]bool) string {
			victim, farthest := "", -1
			for k := range cached {
				// Ties (keys never used again) go to the smallest key, so
				// the number repeats; which of them goes cannot matter.
				if n := next[k]; n > farthest || n == farthest && k < victim {
					victim, farthest = k, n
				}
			}
			return victim
		})

	t.Logf("hit rate over %d statements after %d of warm-up, %d entries: model LRU %.4f, bounded cache %.4f, clairvoyant %.4f (unbounded %.4f)",
		replayMeasured, replayWarm, replayCapacity, lru, bounded, clairvoyant, unbounded)
	if bounded < lru+0.05 {
		t.Errorf("bounded cache hits %.4f, model LRU %.4f: the policy gains less than 0.05", bounded, lru)
	}
	if bounded > clairvoyant {
		t.Errorf("bounded cache hits %.4f, above the clairvoyant bound %.4f: the replay is wrong", bounded, clairvoyant)
	}
	if clairvoyant > unbounded {
		t.Errorf("clairvoyant %.4f above the unbounded cache's %.4f: the replay is wrong", clairvoyant, unbounded)
	}
}
