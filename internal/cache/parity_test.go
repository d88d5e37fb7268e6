package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/encrypt"
	"dssp/internal/homeserver"
	"dssp/internal/invalidate"
	"dssp/internal/obs"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
	"dssp/internal/workload"
)

// parityExposures assigns a deterministic mix of exposure levels so a
// replay exercises every strategy class, including blind entries (the
// hidden bucket) and blind updates. It is the assignment
// experiments.BatchInvalidation uses; that package imports this one, so
// the in-package tests keep their own copy.
func parityExposures(app *template.App) map[string]template.Exposure {
	m := make(map[string]template.Exposure, len(app.Queries)+len(app.Updates))
	qcycle := []template.Exposure{template.ExpView, template.ExpStmt, template.ExpTemplate, template.ExpStmt, template.ExpBlind}
	for i, q := range app.Queries {
		m[q.ID] = qcycle[i%len(qcycle)]
	}
	ucycle := []template.Exposure{template.ExpStmt, template.ExpTemplate, template.ExpStmt, template.ExpBlind}
	for i, u := range app.Updates {
		m[u.ID] = ucycle[i%len(ucycle)]
	}
	return m
}

// replayOp is one operation of a sealed benchmark replay: a query with the
// result the home server gave for it at that point of the stream, or an
// update the home server has already executed.
type replayOp struct {
	isQuery bool
	q       wire.SealedQuery
	r       wire.SealedResult
	empty   bool
	u       wire.SealedUpdate
}

// replay is a seeded benchmark workload under parityExposures, sealed and
// run through a home server once, so that any number of caches can be
// driven with byte-identical messages (trace IDs and keys included) and
// their decision logs compared entry for entry.
type replay struct {
	app     *template.App
	inv     *invalidate.Invalidator
	ops     []replayOp
	updates int
}

func newReplay(t testing.TB, b workload.Benchmark, pages int, seed int64) *replay {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	app := b.App()
	db := storage.NewDatabase(app.Schema)
	if err := b.Populate(db, rng); err != nil {
		t.Fatal(err)
	}
	master := make([]byte, encrypt.KeySize)
	rng.Read(master)
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(master), parityExposures(app))
	home := homeserver.New(db, app, codec)
	rp := &replay{app: app, inv: invalidate.New(app, core.Analyze(app, core.DefaultOptions()))}
	session := b.NewSession(rng)
	for p := 0; p < pages; p++ {
		for _, op := range session.NextPage() {
			if op.Template.Kind == template.KQuery {
				sq, err := codec.SealQuery(op.Template, op.Params)
				if err != nil {
					t.Fatal(err)
				}
				a, err := home.ExecQuery(sq)
				if err != nil {
					t.Fatal(err)
				}
				rp.ops = append(rp.ops, replayOp{isQuery: true, q: sq, r: a.Result.Own(), empty: a.Empty})
				a.Release()
				continue
			}
			su, err := codec.SealUpdate(op.Template, op.Params)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := home.ExecUpdate(su); err != nil {
				t.Fatal(err)
			}
			rp.ops = append(rp.ops, replayOp{u: su})
			rp.updates++
		}
	}
	return rp
}

// newCache builds an empty cache for the replay's application with a
// decision log large enough that nothing wraps before the comparison.
func (rp *replay) newCache(capacity int) *Cache {
	return New(rp.app, rp.inv, Options{
		Capacity:    capacity,
		DecisionLog: (rp.updates+1)*(len(rp.app.Queries)+2) + 16, // +1: tests may forge an update
	})
}

// serve plays one query against a cache the way a node does: a hit leaves
// the cache alone, a miss stores the home server's result.
func (op *replayOp) serve(c *Cache) {
	if _, hit := c.Lookup(op.q); !hit {
		c.Store(op.q, op.r, op.empty)
	}
}

// TestRouteParity is the acceptance check for the invalidation routing
// index: on a seeded benchmark replay, the production walk's invalidation
// counts and decision log must be identical to the unrouted oracle's,
// modulo the A = 0 decisions routing provably elides — all of which must
// have dropped nothing.
func TestRouteParity(t *testing.T) {
	for _, b := range []workload.Benchmark{apps.NewBBoard(), apps.NewBookstore(), apps.NewAuction()} {
		rp := newReplay(t, b, 150, 7)
		routed, unrouted := rp.newCache(0), rp.newCache(0)
		for i := range rp.ops {
			op := &rp.ops[i]
			if op.isQuery {
				op.serve(routed)
				op.serve(unrouted)
				continue
			}
			if r, u := routed.OnUpdate(op.u), oracleOnUpdate(unrouted, op.u, true); r != u {
				t.Errorf("%s: op %d (%s): routed walk invalidated %d, unrouted oracle %d",
					b.Name(), i, obs.Tmpl(op.u.TemplateID), r, u)
			}
		}

		rStats, uStats := routed.Stats(), unrouted.Stats()
		if rStats.Invalidations != uStats.Invalidations {
			t.Errorf("%s: invalidations: routed %d, unrouted %d", b.Name(), rStats.Invalidations, uStats.Invalidations)
		}
		if rStats.BucketsSkipped == 0 {
			t.Errorf("%s: routing never skipped a bucket; the fast path is not engaged", b.Name())
		}
		if uStats.BucketsSkipped != 0 {
			t.Errorf("%s: the unrouted oracle skipped %d buckets", b.Name(), uStats.BucketsSkipped)
		}
		if got, want := routed.Dump(), unrouted.Dump(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: surviving entries differ: routed %d, unrouted %d", b.Name(), len(got), len(want))
		}

		// Diff the logs: drop every unrouted decision on a pair the
		// analysis proved A = 0 (those are exactly the ones routing
		// elides) and demand the remainder match the routed log decision
		// for decision.
		router := rp.inv.Router()
		rLog, uLog := routed.Decisions(), unrouted.Decisions()
		filtered := make([]Decision, 0, len(uLog))
		elided := 0
		for _, d := range uLog {
			if d.UpdateTemplate != obs.BlindTemplate && d.QueryTemplate != obs.BlindTemplate &&
				router.AZero(d.UpdateTemplate, d.QueryTemplate) {
				elided++
				if d.Dropped != 0 {
					t.Errorf("%s: a decision on an A = 0 pair dropped entries: %+v", b.Name(), d)
				}
				continue
			}
			filtered = append(filtered, d)
		}
		if !reflect.DeepEqual(filtered, rLog) {
			t.Errorf("%s: routed log (%d decisions) != unrouted log minus A = 0 pairs (%d of %d)",
				b.Name(), len(rLog), len(filtered), len(uLog))
		}
		if len(rLog) == 0 {
			t.Errorf("%s: degenerate replay: no decisions logged", b.Name())
		}
		if elided == 0 {
			t.Logf("%s: no A=0 decisions elided on this seed (weak run)", b.Name())
		}
	}
}

// TestWalkMatchesOracleUnderRandomGrouping is the property the one walk
// stands on: however a stream of completed updates is cut into batches,
// the production walk decides exactly what the update-by-update oracle
// decides. The bookstore replay runs in rounds — a round's queries fill
// the cache while its updates queue, then the queue is applied — so the
// walk meets refilled buckets of every class, the hidden bucket, blind
// updates and (forged at the head of the middle round's queue) a template ID the
// application does not define. Three appliers see the same rounds:
// the oracle, OnUpdate, and OnUpdateBatchCounts cut at random boundaries;
// per-update counts, decision logs, dumps and logical stats must agree.
// The bounded variant keeps the replacement machinery live (capacity far
// above the working set, so nothing evicts).
func TestWalkMatchesOracleUnderRandomGrouping(t *testing.T) {
	const roundOps = 60
	rp := newReplay(t, apps.NewBookstore(), 600, 7)

	type round struct {
		queries []*replayOp
		queue   []wire.SealedUpdate
	}
	var rounds []round
	for lo := 0; lo < len(rp.ops); lo += roundOps {
		var r round
		for i := lo; i < lo+roundOps && i < len(rp.ops); i++ {
			if op := &rp.ops[i]; op.isQuery {
				r.queries = append(r.queries, op)
			} else {
				r.queue = append(r.queue, op.u)
			}
		}
		rounds = append(rounds, r)
	}
	mid := &rounds[len(rounds)/2]
	mid.queue = append([]wire.SealedUpdate{{
		Exposure: template.ExpStmt, TraceID: forgedTrace, TemplateID: "U99",
		Params: []sqlparse.Value{sqlparse.IntVal(1)},
	}}, mid.queue...)

	// run plays every round into a fresh cache, handing each queue to
	// apply, and returns the cache and the per-update counts.
	run := func(capacity int, apply func(c *Cache, queue []wire.SealedUpdate) []int) (*Cache, []int) {
		c := rp.newCache(capacity)
		var counts []int
		for _, r := range rounds {
			for _, op := range r.queries {
				op.serve(c)
			}
			counts = append(counts, apply(c, r.queue)...)
		}
		return c, counts
	}
	oneByOne := func(f func(c *Cache, u wire.SealedUpdate) int) func(*Cache, []wire.SealedUpdate) []int {
		return func(c *Cache, queue []wire.SealedUpdate) []int {
			out := make([]int, len(queue))
			for i, u := range queue {
				out[i] = f(c, u)
			}
			return out
		}
	}

	for _, capacity := range []int{0, 1 << 16} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			oracle, want := run(capacity, oneByOne(func(c *Cache, u wire.SealedUpdate) int {
				return oracleOnUpdate(c, u, false)
			}))
			wantLog, wantDump, wantStats := oracle.Decisions(), oracle.Dump(), oracle.Stats()

			// The stream must actually contain what the test claims.
			classes := make(map[string]bool)
			hidden, blindUpdate, forged := false, false, false
			for _, d := range wantLog {
				classes[d.Class] = true
				hidden = hidden || (d.QueryTemplate == obs.BlindTemplate && d.Dropped > 0)
				blindUpdate = blindUpdate || (d.UpdateTemplate == obs.BlindTemplate && d.QueryTemplate != obs.BlindTemplate)
				forged = forged || d.Trace == forgedTrace
			}
			for _, cl := range []invalidate.Class{invalidate.Blind, invalidate.TemplateInspection, invalidate.StatementInspection, invalidate.ViewInspection} {
				if !classes[cl.String()] {
					t.Errorf("weak replay: no %v decision in the oracle's log", cl)
				}
			}
			if !hidden || !blindUpdate || !forged {
				t.Errorf("weak replay: hidden bucket dropped=%v, blind update=%v, forged template=%v", hidden, blindUpdate, forged)
			}
			if wantStats.Invalidations == 0 || wantStats.BucketsSkipped == 0 || len(wantDump) == 0 {
				t.Errorf("weak replay: stats %+v, %d surviving entries", wantStats, len(wantDump))
			}

			check := func(t *testing.T, c *Cache, counts []int) {
				t.Helper()
				if !reflect.DeepEqual(counts, want) {
					t.Errorf("per-update counts diverged from the oracle:\n got  %v\n want %v", counts, want)
				}
				if got := c.Decisions(); !reflect.DeepEqual(got, wantLog) {
					t.Errorf("decision log diverged from the oracle (%d vs %d decisions)", len(got), len(wantLog))
				}
				if got := c.Dump(); !reflect.DeepEqual(got, wantDump) {
					t.Errorf("surviving entries diverged from the oracle (%d vs %d)", len(got), len(wantDump))
				}
				st := c.Stats()
				if st.Invalidations != wantStats.Invalidations ||
					st.BucketsVisited != wantStats.BucketsVisited ||
					st.BucketsSkipped != wantStats.BucketsSkipped ||
					st.UpdatesSeen != wantStats.UpdatesSeen {
					t.Errorf("logical stats diverged: got %+v, oracle %+v", st, wantStats)
				}
				if st.BucketWalks > wantStats.BucketWalks {
					t.Errorf("the walk probed %d buckets, the oracle only %d", st.BucketWalks, wantStats.BucketWalks)
				}
				if capacity > 0 {
					auditQueues(t, c)
				}
			}

			if capacity > 0 {
				auditQueues(t, oracle)
			}
			t.Run("OnUpdate", func(t *testing.T) {
				c, counts := run(capacity, oneByOne((*Cache).OnUpdate))
				check(t, c, counts)
				if got := c.Stats().BucketWalks; got != wantStats.BucketWalks {
					t.Errorf("a batch of one probed %d buckets, the oracle %d: the inline path must cost what it did", got, wantStats.BucketWalks)
				}
			})
			for seed := int64(0); seed < 50; seed++ {
				rng := rand.New(rand.NewSource(seed))
				c, counts := run(capacity, func(c *Cache, queue []wire.SealedUpdate) []int {
					var out []int
					for len(queue) > 0 {
						n := 1 + rng.Intn(9)
						if n > len(queue) {
							n = len(queue)
						}
						out = append(out, c.OnUpdateBatchCounts(queue[:n])...)
						queue = queue[n:]
					}
					return out
				})
				check(t, c, counts)
				if t.Failed() {
					t.Fatalf("diverged at grouping seed %d", seed)
				}
			}
		})
	}
}
