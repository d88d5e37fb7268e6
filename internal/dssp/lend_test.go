package dssp

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/shard"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// scrambleFront is a front that overwrites what a statement lends it —
// the client's scratch: a query's key and payload bytes and an update's
// payload bytes, each XORed with 0xA5, and the parameter values — the
// moment Query or Update returns, as the client's next statement sealed
// into the same scratch would. A keeper that holds a byte of the scratch
// past the call then reads garbage at once.
type scrambleFront struct{ pipeline.Front }

func (f scrambleFront) Update(ctx context.Context, su wire.SealedUpdate) (int, int, uint64, error) {
	affected, invalidated, seq, err := f.Front.Update(ctx, su)
	for i := range su.Opaque {
		su.Opaque[i] ^= 0xA5
	}
	for i := range su.Params {
		su.Params[i] = sqlparse.StringVal("\xa5")
	}
	return affected, invalidated, seq, err
}

func (f scrambleFront) Query(ctx context.Context, sq wire.SealedQuery, r pipeline.Replier) error {
	err := f.Front.Query(ctx, sq, r)
	key := unsafe.Slice(unsafe.StringData(sq.Key), len(sq.Key))
	for _, b := range [][]byte{key, sq.Opaque} {
		for i := range b {
			b[i] ^= 0xA5
		}
	}
	for i := range sq.Params {
		sq.Params[i] = sqlparse.StringVal("\xa5")
	}
	return err
}

// lendingOp is one statement of a lending script.
type lendingOp struct {
	t      *template.Template
	params []interface{}
}

// lendingScript is TestEndToEndConsistency's mix over richApp: four
// queries in five, with parameters drawn from a small domain so that
// queries repeat and updates invalidate.
func lendingScript(app *template.App, n int) []lendingOp {
	rng := rand.New(rand.NewSource(7))
	st := newGenState()
	ops := make([]lendingOp, 0, n)
	for len(ops) < n {
		if rng.Intn(5) > 0 {
			q := app.Queries[rng.Intn(len(app.Queries))]
			ops = append(ops, lendingOp{q, queryParams(rng, q)})
			continue
		}
		u, params := updateParams(rng, app, app.Updates[rng.Intn(len(app.Updates))], st)
		ops = append(ops, lendingOp{u, params})
	}
	return ops
}

// lendingRun is one client of the test, and what it leaves behind: the
// caches whose dumps and decision logs the run leaves, and the router's
// registry, which counts its blind-key cache's hits and misses, when there
// is a router. join, when not nil, is called half-way through the script.
type lendingRun struct {
	c      *Client
	caches []*cache.Cache
	router *obs.Registry
	join   func()
}

// lendingSetup builds a client over exps, seeded, whose front scramble
// wraps in scrambleFront.
type lendingSetup func(t *testing.T, app *template.App, exps map[string]template.Exposure, scramble bool) lendingRun

// lendingNode is a node whose decision log holds a whole script's
// decisions.
func lendingNode(app *template.App) *Node {
	return NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{DecisionLog: 1 << 14})
}

// pipeFront is a client over one node's pipeline, at the given monitoring
// interval, straight to the home.
func pipeFront(interval time.Duration) lendingSetup {
	return func(t *testing.T, app *template.App, exps map[string]template.Exposure, scramble bool) lendingRun {
		c, db := newStack(t, app, exps)
		seed(t, db, rand.New(rand.NewSource(99)))
		c.Node = lendingNode(app)
		c.Front = shard.PipeBackend{Pipe: pipeline.New(c.Node, pipeline.NewDirectTransport(c.Home), nil, pipeline.Options{MonitorInterval: interval})}
		if scramble {
			c.Front = scrambleFront{c.Front}
		}
		return lendingRun{c: c, caches: []*cache.Cache{c.Node.Cache}}
	}
}

// routedFront is a client over a shard.Router of two nodes that share a
// home, with Q1 blind, so that the router pins Q1's keys in its blind-key
// cache; half-way through, a third node joins cold, and only the pins
// keep a warm Q1 key on its node.
func routedFront(t *testing.T, app *template.App, exps map[string]template.Exposure, scramble bool) lendingRun {
	blind := make(map[string]template.Exposure, len(exps))
	for id, e := range exps {
		blind[id] = e
	}
	blind["Q1"] = template.ExpBlind
	c, db := newStack(t, app, blind)
	seed(t, db, rand.New(rand.NewSource(99)))
	run := lendingRun{c: c, router: obs.NewRegistry()}
	backend := func() shard.Backend {
		n := lendingNode(app)
		run.caches = append(run.caches, n.Cache)
		return shard.PipeBackend{Pipe: pipeline.New(n, pipeline.NewDirectTransport(c.Home), nil, pipeline.Options{}), Buckets: n.Cache}
	}
	router := shard.NewRouter(core.Analyze(app, core.DefaultOptions()), []shard.Backend{backend(), backend()}, obs.NewTracer(run.router, obs.WallClock()))
	c.Front = router
	if scramble {
		c.Front = scrambleFront{router}
	}
	run.join = func() {
		if _, err := router.Join(context.Background(), backend(), false); err != nil {
			t.Fatal(err)
		}
	}
	return run
}

// answer runs op through c and renders what it answered.
func answer(t *testing.T, c *Client, op lendingOp) string {
	t.Helper()
	if op.t.Kind == template.KQuery {
		r, err := c.Query(op.t, op.params...)
		if err != nil {
			t.Fatalf("%s%v: %v", op.t.ID, op.params, err)
		}
		return fmt.Sprintf("%s%v %+v %q %q", op.t.ID, op.params, r.Outcome, r.Result.Columns, r.Result.Fingerprint(false))
	}
	affected, invalidated, err := c.Update(op.t, op.params...)
	if err != nil {
		t.Fatalf("%s%v: %v", op.t.ID, op.params, err)
	}
	return fmt.Sprintf("%s%v %d %d", op.t.ID, op.params, affected, invalidated)
}

// leftBehind is what a run leaves in its caches — each one's dump and
// decision log, trace IDs blanked (they differ from run to run) — and the
// hits and misses of its router's blind-key cache.
func (r lendingRun) leftBehind() (dumps [][]string, decisions [][]cache.Decision, pins [2]int64) {
	for _, c := range r.caches {
		ds := c.Decisions()
		for i := range ds {
			ds[i].Trace = obs.TraceID{}
		}
		dumps, decisions = append(dumps, c.Dump()), append(decisions, ds)
	}
	if r.router != nil {
		pins = [2]int64{r.router.Counter(obs.MRouterBlindCacheHits).Value(), r.router.Counter(obs.MRouterBlindCacheMiss).Value()}
	}
	return dumps, decisions, pins
}

// TestClientLendsOnlyForTheCall: a client whose scratch is overwritten
// the moment each statement returns answers a mixed script, under every
// exposure scenario, exactly as one whose scratch is left alone, and
// leaves the same cache dumps and decision logs behind — in process over
// one node's pipeline, with inline and with batched invalidation, and over
// a router of two nodes, with a blind template and a third node joining
// half-way, where the blind-key cache must hit and miss alike too. So
// nothing behind the front holds a byte of a sealed statement past the call
// it was lent for: the pipeline's miss copies the key and the parameters
// it keeps in flights and the cache (takeMiss), the router the blind
// keys it pins, and the pipeline's update call the update it holds until
// its invalidation, across the batcher's interval too (takeUpdate).
func TestClientLendsOnlyForTheCall(t *testing.T) {
	app := richApp()
	script := lendingScript(app, 600)
	setups := []struct {
		name  string
		setup lendingSetup
	}{
		{"pipeline", pipeFront(0)},
		{"pipeline/batched", pipeFront(time.Millisecond)},
		{"router", routedFront},
	}
	for _, s := range setups {
		for name, exps := range exposureScenarios(app) {
			t.Run(s.name+"/"+name, func(t *testing.T) {
				ref, got := s.setup(t, app, exps, false), s.setup(t, app, exps, true)
				hits := 0
				for i, op := range script {
					if i == len(script)/2 && ref.join != nil {
						ref.join()
						got.join()
					}
					want := answer(t, ref.c, op)
					if a := answer(t, got.c, op); a != want {
						t.Fatalf("op %d answered %q, want %q", i, a, want)
					}
					// The scratch just scrambled leaves the pool, so the
					// next query seals into other memory and a byte kept
					// of this one reads as garbage for good.
					got.c.scratch.Get()
					if strings.Contains(want, "Hit:true") {
						hits++
					}
				}
				if hits == 0 {
					t.Fatal("no query hit: the script proves nothing")
				}
				gotDumps, gotDecisions, gotPins := got.leftBehind()
				wantDumps, wantDecisions, wantPins := ref.leftBehind()
				if !reflect.DeepEqual(gotDumps, wantDumps) {
					t.Fatalf("cache dumps differ:\n got %q\nwant %q", gotDumps, wantDumps)
				}
				if !reflect.DeepEqual(gotDecisions, wantDecisions) {
					t.Fatalf("decision logs differ:\n got %+v\nwant %+v", gotDecisions, wantDecisions)
				}
				if ref.router != nil && wantPins[0] == 0 {
					t.Fatal("the router's blind-key cache never hit: the script proves nothing")
				}
				if gotPins != wantPins {
					t.Fatalf("the router's blind-key cache hit and missed %v times, want %v", gotPins, wantPins)
				}
			})
		}
	}
}
