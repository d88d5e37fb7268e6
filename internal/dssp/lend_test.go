package dssp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/engine"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/shard"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
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
	scramble("", su.Opaque, su.Params)
	return affected, invalidated, seq, err
}

func (f scrambleFront) Query(ctx context.Context, sq wire.SealedQuery, r pipeline.Replier) error {
	err := f.Front.Query(ctx, sq, r)
	scramble(sq.Key, sq.Opaque, sq.Params)
	return err
}

// scramble overwrites what a sealed statement lent: its key and payload
// bytes, each XORed with 0xA5, and its parameter values.
func scramble(key string, opaque []byte, params []sqlparse.Value) {
	for _, b := range [][]byte{unsafe.Slice(unsafe.StringData(key), len(key)), opaque} {
		for i := range b {
			b[i] ^= 0xA5
		}
	}
	for i := range params {
		params[i] = sqlparse.StringVal("\xa5")
	}
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
// parked, when not nil, sends the client's statements in place of its
// front.
type lendingRun struct {
	c      *Client
	caches []*cache.Cache
	router *obs.Registry
	join   func()
	parked *parkedSend
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

// parkedPipe is pipeFront(0) whose client, scrambled, sends as the
// simulator's emulated clients do (parkedSend), and is held to the same
// client answering through its front.
func parkedPipe(t *testing.T, app *template.App, exps map[string]template.Exposure, scramble bool) lendingRun {
	run := pipeFront(0)(t, app, exps, false)
	if scramble {
		run.parked = &parkedSend{c: run.c, pipe: run.c.Front.(shard.PipeBackend).Pipe}
	}
	return run
}

// parkedSend sends a client's statements as the simulator's routed and
// delayed send does: each is sealed (StartQuery, StartUpdate) a step
// before its node's pipeline runs it, and a query's answer, which the
// pipeline hands back before its call returns, is opened a step after
// that. So three statements hold the client's scratch at once, and each
// query holds its own across an answer it takes after its call has
// returned. Each statement's scratch is scrambled as scrambleFront
// scrambles it, but when it is given back — at the open, or at an
// update's reply — not when the call returns.
type parkedSend struct {
	c            *Client
	pipe         *pipeline.Pipeline
	sealed, sent *parkedStatement
}

// parkedStatement is one statement in flight through a parkedSend: its
// op, what it lent the pipeline, and its answer once it has one.
type parkedStatement struct {
	op     lendingOp
	st     *Statement
	sq     wire.SealedQuery
	su     wire.SealedUpdate
	reply  pipeline.QueryReply
	answer string // an update's, once answered
}

// step seals op, when there is one, sends the statement sealed at the last
// step and opens the one sent at the last step, and returns answers with
// the opened one's appended.
func (p *parkedSend) step(t *testing.T, op *lendingOp, answers []string) []string {
	t.Helper()
	opened, sent := p.sent, p.sealed
	p.sealed, p.sent = p.seal(t, op), sent
	if sent != nil {
		p.send(t, sent)
	}
	switch {
	case opened == nil:
		return answers
	case opened.op.t.Kind != template.KQuery:
		return append(answers, opened.answer)
	}
	r, err := opened.st.Open(opened.reply.Result, opened.reply.Hit)
	scramble(opened.sq.Key, opened.sq.Opaque, opened.sq.Params)
	return append(answers, opened.op.queried(t, r, err))
}

// seal seals op, when there is one, into a statement of the client's.
func (p *parkedSend) seal(t *testing.T, op *lendingOp) *parkedStatement {
	t.Helper()
	if op == nil {
		return nil
	}
	vals, err := Params(op.params...)
	if err != nil {
		t.Fatal(err)
	}
	s := &parkedStatement{op: *op}
	if op.t.Kind == template.KQuery {
		s.st, s.sq, err = p.c.StartQuery(op.t, vals)
	} else {
		s.st, s.su, err = p.c.StartUpdate(op.t, vals)
	}
	if err != nil {
		t.Fatalf("%s%v: %v", op.t.ID, op.params, err)
	}
	return s
}

// send runs s through the pipeline, parking a query's answer for its open
// and giving an update's statement back at its reply.
func (p *parkedSend) send(t *testing.T, s *parkedStatement) {
	t.Helper()
	if s.op.t.Kind == template.KQuery {
		p.pipe.Query(context.Background(), s.sq, func(reply pipeline.QueryReply, err error) {
			if err != nil {
				t.Fatalf("%s%v: %v", s.op.t.ID, s.op.params, err)
			}
			s.reply = reply
		})
		return
	}
	p.pipe.Update(context.Background(), s.su, func(reply pipeline.UpdateReply, err error) {
		s.st.Release()
		scramble("", s.su.Opaque, s.su.Params)
		s.answer = s.op.updated(t, reply.Affected, reply.Invalidated, err)
	})
}

// answer runs op, when there is one, through r's client and returns
// answers with what it answered appended: op's answer, or, when r parks
// its statements, the answer of the one it opened.
func (r lendingRun) answer(t *testing.T, op *lendingOp, answers []string) []string {
	t.Helper()
	if r.parked != nil {
		return r.parked.step(t, op, answers)
	}
	if op == nil {
		return answers
	}
	return append(answers, answer(t, r.c, *op))
}

// answer runs op through c and renders what it answered.
func answer(t *testing.T, c *Client, op lendingOp) string {
	t.Helper()
	if op.t.Kind == template.KQuery {
		r, err := c.Query(op.t, op.params...)
		return op.queried(t, r, err)
	}
	affected, invalidated, err := c.Update(op.t, op.params...)
	return op.updated(t, affected, invalidated, err)
}

// queried renders the answer r to op, failing t on err.
func (op lendingOp) queried(t *testing.T, r *QueryResult, err error) string {
	t.Helper()
	if err != nil {
		t.Fatalf("%s%v: %v", op.t.ID, op.params, err)
	}
	return fmt.Sprintf("%s%v %+v %q %q", op.t.ID, op.params, r.Outcome, r.Result.Columns, r.Result.Fingerprint(false))
}

// updated renders what op, an update, answered, failing t on err.
func (op lendingOp) updated(t *testing.T, affected, invalidated int, err error) string {
	t.Helper()
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
// half-way, where the blind-key cache must hit and miss alike too, and
// with the statements sent as the simulator sends them, each held from
// its seal across an answer that comes back after its call (parkedSend)
// and scrambled only once given back. So
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
		{"parked", parkedPipe},
	}
	for _, s := range setups {
		for name, exps := range exposureScenarios(app) {
			t.Run(s.name+"/"+name, func(t *testing.T) {
				ref, got := s.setup(t, app, exps, false), s.setup(t, app, exps, true)
				var wants, gots []string
				for i, op := range script {
					if i == len(script)/2 && ref.join != nil {
						ref.join()
						got.join()
					}
					wants, gots = ref.answer(t, &op, wants), got.answer(t, &op, gots)
					// The scratch just scrambled leaves the pool, so the
					// next query seals into other memory and a byte kept
					// of this one reads as garbage for good. A parked run
					// leaves it there: a statement given back while still
					// in flight is then sealed over by the next one.
					if got.parked == nil {
						got.c.scratch.Get()
					}
				}
				for range 2 { // the statements still parked
					gots = got.answer(t, nil, gots)
				}
				hits := 0
				for i, want := range wants {
					if gots[i] != want {
						t.Fatalf("op %d answered %q, want %q", i, gots[i], want)
					}
					if strings.Contains(want, "Hit:true") {
						hits++
					}
				}
				if len(gots) != len(wants) {
					t.Fatalf("%d answers, want %d", len(gots), len(wants))
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

// boxApp is the toystore with three query templates whose answers fill
// each answer box class and overflow them: a toy's name (one value), a
// toy's row (three values) and the rows of the toys above a quantity
// (three values each). Its toys are named by boxNames, whose lengths put a
// name in the box of two values, in the box of six, and in neither.
func boxApp() (*template.App, []*template.Template) {
	app := apps.Toystore()
	s := app.Schema
	qs := []*template.Template{
		template.MustNew("B1", s, "SELECT toy_name FROM toys WHERE toy_id=?"),
		template.MustNew("B2", s, "SELECT toy_id, toy_name, qty FROM toys WHERE toy_id=?"),
		template.MustNew("B3", s, "SELECT toy_id, toy_name, qty FROM toys WHERE qty>?"),
	}
	app.Queries = append(app.Queries, qs...)
	return app, qs
}

var boxNames = []string{"kite", "a kite of many colours", "a kite of many colours and a very long tail"}

// inBox reports whether r's values lie in the box r was allocated in,
// right after its result, as they do in every class but the fallback.
func inBox(r *QueryResult) bool {
	return len(r.Result.Vals) > 0 &&
		uintptr(unsafe.Pointer(&r.Result.Vals[0])) == uintptr(unsafe.Pointer(r))+unsafe.Sizeof(box{})
}

// TestClientResultsOwnTheirBox: a client opens each answer into a box
// sized to it — its values and, unless the result arrived in the clear by
// pointer, its string bytes beside its QueryResult, in the smallest class
// they fit, or in arrays of their own when they fit none — and what it
// returns stays its own: at every exposure level, results of every class
// and of the fallback, hits and misses, with string values, held across
// 300 further queries over a front that scrambles the client's scratch,
// keep every value and string they had on receipt.
func TestClientResultsOwnTheirBox(t *testing.T) {
	app, qs := boxApp()
	for _, exp := range []template.Exposure{template.ExpBlind, template.ExpTemplate, template.ExpStmt, template.ExpView} {
		t.Run(exp.String(), func(t *testing.T) {
			exps := map[string]template.Exposure{}
			for _, q := range qs {
				exps[q.ID] = exp
			}
			c, db := newStack(t, app, exps)
			for i := 0; i < 8; i++ {
				row := storage.Row{sqlparse.IntVal(int64(i + 1)), sqlparse.StringVal(boxNames[i%len(boxNames)]), sqlparse.IntVal(int64(10 * i))}
				if err := db.Insert("toys", row); err != nil {
					t.Fatal(err)
				}
			}
			c.Front = scrambleFront{shard.PipeBackend{Pipe: pipeline.New(c.Node, pipeline.NewDirectTransport(c.Home), nil, pipeline.Options{})}}
			var held []*QueryResult
			var prints []string
			classes := map[string]int{}
			hold := func(q *template.Template, param int) {
				t.Helper()
				r, err := c.Query(q, param)
				if err != nil {
					t.Fatalf("%s(%d): %v", q.ID, param, err)
				}
				n, m := len(r.Result.Vals), 0
				for _, v := range r.Result.Vals {
					m += len(v.Str)
				}
				if exp == template.ExpView {
					m = 0 // the cache's result arrives by pointer, its strings immutable already
				}
				class := "fallback"
				switch {
				case n <= 2 && m <= 16:
					class = "2 values"
				case n <= 6 && m <= 32:
					class = "6 values"
				}
				class += " box"
				if inBox(r) != (class != "fallback box") {
					t.Fatalf("%s(%d) of %d values and %d string bytes: values in the box %v, want the %s class", q.ID, param, n, m, inBox(r), class)
				}
				if m > 0 && class != "fallback box" {
					lo, hi := uintptr(unsafe.Pointer(r)), uintptr(unsafe.Pointer(r))+unsafe.Sizeof(box6{})
					for _, v := range r.Result.Vals {
						if p := uintptr(unsafe.Pointer(unsafe.StringData(v.Str))); v.Str != "" && (p < lo || p >= hi) {
							t.Fatalf("%s(%d): string %q is not in the answer's box", q.ID, param, v.Str)
						}
					}
				}
				if r.Outcome.Hit {
					classes["hit"]++
				}
				classes[class]++
				held, prints = append(held, r), append(prints, fmt.Sprintf("%+v %q %q", r.Outcome, r.Result.Columns, r.Result.Vals))
			}
			for round := 0; round < 2; round++ { // a miss, then a hit
				for id := 1; id <= 3; id++ {
					hold(qs[0], id)
					hold(qs[1], id)
				}
				hold(qs[2], 0)
			}
			for _, class := range []string{"2 values box", "6 values box", "fallback box", "hit"} {
				if classes[class] == 0 {
					t.Fatalf("no held result is a %s: the test proves nothing", class)
				}
			}
			for i := 0; i < 300; i++ {
				q := qs[i%len(qs)]
				if _, err := c.Query(q, i%9); err != nil {
					t.Fatalf("%s(%d): %v", q.ID, i%9, err)
				}
				c.scratch.Get()
			}
			for i, r := range held {
				if got := fmt.Sprintf("%+v %q %q", r.Outcome, r.Result.Columns, r.Result.Vals); got != prints[i] {
					t.Fatalf("held result %d changed after later queries:\n got %s\nwant %s", i, got, prints[i])
				}
			}
		})
	}
}

// flakyFront answers every other query and fails the rest: with an error,
// or, silent, with no error and no reply.
type flakyFront struct {
	pipeline.Front
	silent bool
	calls  int
}

var errFlaky = errors.New("flaky front")

func (f *flakyFront) Query(ctx context.Context, sq wire.SealedQuery, r pipeline.Replier) error {
	if f.calls++; f.calls%2 == 1 {
		return f.Front.Query(ctx, sq, r)
	}
	if f.silent {
		return nil
	}
	return errFlaky
}

// TestClientFailsWithoutAStaleAnswer: the replier a query answers through
// is pooled scratch, so a query whose front fails, or returns without
// replying, must fail with nothing — never with the answer the replier
// held for the query before it.
func TestClientFailsWithoutAStaleAnswer(t *testing.T) {
	app, qs := boxApp()
	for _, silent := range []bool{false, true} {
		c, db := newStack(t, app, nil)
		if err := db.Insert("toys", storage.Row{sqlparse.IntVal(1), sqlparse.StringVal("kite"), sqlparse.IntVal(3)}); err != nil {
			t.Fatal(err)
		}
		c.Front = &flakyFront{Front: shard.PipeBackend{Pipe: pipeline.New(c.Node, pipeline.NewDirectTransport(c.Home), nil, pipeline.Options{})}, silent: silent}
		for i := 0; i < 10; i++ {
			r, err := c.Query(qs[1], 1)
			if i%2 == 0 {
				if err != nil || r.Outcome.Rows != 1 {
					t.Fatalf("silent %v: query %d: %+v, %v; want one row", silent, i, r, err)
				}
				continue
			}
			if want := map[bool]error{false: errFlaky, true: errNoReply}[silent]; r != nil || !errors.Is(err, want) {
				t.Fatalf("silent %v: query %d over a failing front: %+v, %v; want nil, %v", silent, i, r, err, want)
			}
		}
	}
	// An answer that comes back empty opens to no rows, and one that does
	// not open fails the query with nothing, whether the front replies
	// within the call or the answer is opened later (StartQuery, Open).
	c, _ := newStack(t, app, map[string]template.Exposure{"B2": template.ExpStmt})
	front := &answerFront{}
	c.Front = front
	answers := []struct {
		name   string
		sealed wire.SealedResult
		opens  bool
	}{
		{"empty", c.Home.Codec.SealResult(qs[1], &engine.Result{Columns: []string{"toy_id", "toy_name", "qty"}}), true},
		{"garbled", wire.SealedResult{Cipher: []byte("not a ciphertext")}, false},
	}
	for _, later := range []bool{false, true} {
		for _, a := range answers {
			var r *QueryResult
			var err error
			if later {
				var st *Statement
				if st, _, err = c.StartQuery(qs[1], []sqlparse.Value{sqlparse.IntVal(1)}); err != nil {
					t.Fatal(err)
				}
				r, err = st.Open(a.sealed, true)
			} else {
				front.res = a.sealed
				r, err = c.Query(qs[1], 1)
			}
			if a.opens && (err != nil || r.Outcome.Rows != 0) {
				t.Fatalf("later %v: the %s answer opened to %+v, %v; want no rows", later, a.name, r, err)
			}
			if !a.opens && (r != nil || err == nil) {
				t.Fatalf("later %v: the %s answer opened to %+v, %v; want nil and an error", later, a.name, r, err)
			}
		}
	}
}

// answerFront answers every query with one sealed result, as a hit.
type answerFront struct{ res wire.SealedResult }

func (f answerFront) Query(_ context.Context, _ wire.SealedQuery, r pipeline.Replier) error {
	r.Reply(f.res, true)
	return nil
}

func (answerFront) Update(context.Context, wire.SealedUpdate) (int, int, uint64, error) {
	return 0, 0, 0, nil
}
