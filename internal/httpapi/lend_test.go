package httpapi

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/homeserver"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
	"dssp/internal/workload"
)

// scrambleAfter makes every frame handler the process h serves overwrite
// its request's body (each byte XORed with 0xA5) the moment it returns, as
// the next frame read into the pooled buffer would: a byte of a request
// kept past its handler then reads as garbage at once. Each frame it
// scrambles is counted in scrambled under its op. h is a process's
// handler, as newMux builds it.
func scrambleAfter(h http.Handler, scrambled *[numOps]atomic.Int64) http.Handler {
	fh, _ := h.(*http.ServeMux).Handler(httptest.NewRequest(http.MethodGet, PathFrames, nil))
	fs := fh.(*frameServer)
	ops := *fs.ops
	for op, serve := range ops {
		if serve == nil {
			continue
		}
		ops[op] = func(ctx context.Context, req, resp *frame) {
			serve(ctx, req, resp)
			for i := range req.body {
				req.body[i] ^= 0xA5
			}
			scrambled[op].Add(1)
		}
	}
	fs.ops = &ops
	return h
}

// lendingFleet is a client, a router, nodes nodes and a home over frames,
// with bboard populated from seed 1 and every template at exp. A non-nil
// scrambled wraps the router's, the nodes' and the home's frame handlers
// in scrambleAfter, which counts in it.
func lendingFleet(t *testing.T, exp template.Exposure, nodes int, scrambled *[numOps]atomic.Int64) (*Client, []*dssp.Node) {
	t.Helper()
	app, codec, db := lendingApp(t, exp)
	wrap := func(h http.Handler) http.Handler { return h }
	if scrambled != nil {
		wrap = func(h http.Handler) http.Handler { return scrambleAfter(h, scrambled) }
	}
	analysis := core.Analyze(app, core.DefaultOptions())
	homeSrv := startServer(t, wrap(HomeHandler(homeserver.New(db, app, codec))))
	var ns []*dssp.Node
	var urls []string
	for range nodes {
		node := dssp.NewNode(app, analysis, cache.Options{})
		nodeSrv := startServer(t, wrap(NewNodeServerWithOptions(node, homeSrv.URL, nil, NodeOptions{}).Handler()))
		ns, urls = append(ns, node), append(urls, nodeSrv.URL)
	}
	routerSrv := startServer(t, wrap(NewRouterServer(analysis, urls, RouterOptions{}).Handler()))
	return NewClient(codec, routerSrv.URL, nil), ns
}

// lendingApp is bboard with every template at exp, a codec under the zero
// key, and a database populated from seed 1.
func lendingApp(t *testing.T, exp template.Exposure) (*template.App, *wire.Codec, *storage.Database) {
	t.Helper()
	bench := apps.NewBBoard()
	app := bench.App()
	exps := map[string]template.Exposure{}
	for _, q := range app.Queries {
		exps[q.ID] = exp
	}
	for _, u := range app.Updates {
		exps[u.ID] = exp
	}
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), exps)
	db := storage.NewDatabase(app.Schema)
	if err := bench.Populate(db, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	return app, codec, db
}

// bboardScript is a bboard session's first pages: browsing with the
// session's posts and moderation among it.
func bboardScript(pages int) []workload.Op {
	bench := apps.NewBBoard()
	if err := bench.Populate(storage.NewDatabase(bench.App().Schema), rand.New(rand.NewSource(1))); err != nil {
		panic(err)
	}
	session := bench.NewSession(rand.New(rand.NewSource(2)))
	var ops []workload.Op
	for p := 0; p < pages; p++ {
		ops = append(ops, session.NextPage()...)
	}
	return ops
}

// run runs op through c and renders what it answered.
func run(t *testing.T, c *Client, op workload.Op) string {
	t.Helper()
	return runOn(t, c.client(), op)
}

// runOn runs op through a trusted client and renders what it answered.
func runOn(t *testing.T, c *dssp.Client, op workload.Op) string {
	t.Helper()
	params := make([]interface{}, len(op.Params))
	for i, v := range op.Params {
		params[i] = v
	}
	if op.Template.Kind == template.KQuery {
		r, err := c.QueryContext(context.Background(), op.Template, params...)
		if err != nil {
			t.Fatalf("%s: %v", op.Template.ID, err)
		}
		return fmt.Sprintf("%s %+v %q", op.Template.ID, r.Outcome, r.Result.Fingerprint(false))
	}
	affected, invalidated, err := c.UpdateContext(context.Background(), op.Template, params...)
	if err != nil {
		t.Fatalf("%s: %v", op.Template.ID, err)
	}
	return fmt.Sprintf("%s %d %d", op.Template.ID, affected, invalidated)
}

// scrambleFreeBuffers overwrites, to its capacity, every frame buffer the
// pool holds — among them the answer frames a node's misses read their
// home's answers from, each back in the pool once its miss's store has
// returned — as the next frame read into one would, so a byte of an answer
// kept past its store reads as garbage for good. It reports how many held
// a frame.
func scrambleFreeBuffers() int {
	var held []*wireBuf
	framed := 0
	for range 64 {
		wb := getBuf()
		if len(wb.b) > 0 {
			framed++
		}
		b := wb.b[:cap(wb.b)]
		for i := range b {
			b[i] ^= 0xA5
		}
		held = append(held, wb)
	}
	for _, wb := range held {
		putBuf(wb)
	}
	return framed
}

// TestHopsLendOnlyForTheCall: a fleet whose router, two nodes and home
// overwrite every request body the moment its handler returns, and every
// answer frame once it is back in the pool, answers a mixed bboard script,
// at every exposure level, exactly as a fleet that does not, and ends with
// the same caches, down to every exported entry's payload. So nothing a
// router, a node or a home keeps past a frame's handler — a cache entry's
// statement above all, which a query frame only lends, at blind exposure
// the key the router's blind-key cache keeps, and an update a node's
// pipeline holds until its invalidation, which an update frame (the exec
// node's), an invalidation frame (the fan-out's) and an exec update frame
// (the home's) only lend — holds a byte of the frame; and nothing a node
// keeps of its home's answer to a miss — the cache entry's result, which
// the exec query's answer frame only lends for the store — holds a byte
// of that frame. Every one of those ops must have been scrambled.
func TestHopsLendOnlyForTheCall(t *testing.T) {
	script := bboardScript(40)
	for _, exp := range allExposures {
		var scrambled [numOps]atomic.Int64
		ref, refNodes := lendingFleet(t, exp, 2, nil)
		got, gotNodes := lendingFleet(t, exp, 2, &scrambled)
		queries, updates, answers := 0, 0, 0
		for i, op := range script {
			want := run(t, ref, op)
			if answer := run(t, got, op); answer != want {
				t.Fatalf("%v: op %d answered %q, want %q", exp, i, answer, want)
			}
			answers += scrambleFreeBuffers()
			if op.Template.Kind == template.KQuery {
				queries++
			} else {
				updates++
			}
		}
		if queries == 0 || updates == 0 {
			t.Fatalf("script of %d queries and %d updates is not mixed", queries, updates)
		}
		for _, op := range []Op{OpQuery, OpUpdate, OpInvalidate, OpExecQuery, OpExecUpdate} {
			if scrambled[op].Load() == 0 {
				t.Fatalf("%v: no %v frame was scrambled: the test proves nothing", exp, op)
			}
		}
		if answers == 0 {
			t.Fatalf("%v: no answer frame was scrambled: the test proves nothing", exp)
		}
		entries := 0
		for n, refNode := range refNodes {
			gotNode := gotNodes[n]
			want := refNode.Cache.Dump()
			entries += len(want)
			if got := gotNode.Cache.Dump(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: node %d's cache dump of %d entries, want %d", exp, n, len(got), len(want))
			}
			var ids []string
			for _, q := range refNode.App.Queries {
				ids = append(ids, q.ID)
			}
			if got, want := gotNode.Cache.ExportBuckets(ids), refNode.Cache.ExportBuckets(ids); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: node %d's exported buckets differ", exp, n)
			}
		}
		if entries == 0 {
			t.Fatalf("%v: the caches are empty", exp)
		}
	}
}

// TestFrameEntriesKeepTheirParams: every entry a node serving frames
// holds after a bboard script carries the statement an in-process node fed
// the same script holds, parameters included, at every exposure level —
// though the node read each query in place and decoded its parameters
// only on a miss, and with no encoded form of them left. The invalidation
// walk binds what an entry's parameters say, and Cache.Dump compares only
// template and key.
func TestFrameEntriesKeepTheirParams(t *testing.T) {
	script := bboardScript(40)
	for _, exp := range allExposures {
		c, nodes := lendingFleet(t, exp, 1, nil)
		node := nodes[0]
		local := dssp.NewClient(lendingApp(t, exp))
		for _, op := range script {
			run(t, c, op)
			runOn(t, local, op)
		}
		got, want := entryQueries(node.Cache), entryQueries(local.Node.Cache)
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: %d entries differ from the in-process node's %d:\n got %+v\nwant %+v", exp, len(got), len(want), got, want)
		}
		withParams := 0
		for _, q := range want {
			if len(q.Params) > 0 {
				withParams++
			}
		}
		if (withParams > 0) != (exp >= template.ExpStmt) {
			t.Fatalf("%v: %d of %d entries have parameters", exp, withParams, len(want))
		}
	}
}

// TestFrameEntriesShareTheirColumns: a node serving frames decodes each
// view answer its home sends into the entry it keeps, against its
// template's column names, which the cache holds once (wire.Columns): the
// view entries of one template share one array of names, as an in-process
// node's do, and no entry copies a name.
func TestFrameEntriesShareTheirColumns(t *testing.T) {
	c, nodes := lendingFleet(t, template.ExpView, 1, nil)
	for _, op := range bboardScript(40) {
		run(t, c, op)
	}
	columns := map[string]*string{} // each template's first entry's names
	shared, entries := 0, 0
	nodes[0].Cache.Entries(func(e *cache.Entry) {
		r := e.Result.Result
		if r == nil || len(r.Columns) == 0 {
			return
		}
		entries++
		if first, ok := columns[e.Query.TemplateID]; !ok {
			columns[e.Query.TemplateID] = unsafe.SliceData(r.Columns)
		} else if first != unsafe.SliceData(r.Columns) {
			t.Errorf("two entries of %s hold two arrays of column names", e.Query.TemplateID)
		} else {
			shared++
		}
	})
	if shared == 0 {
		t.Fatalf("of %d view entries no two are of one template: the test proves nothing", entries)
	}
}

// entryQueries maps each entry of c, by template and key, to its
// statement; no parameters read as nil, since the sealed grammar does not
// tell an empty list from an absent one.
func entryQueries(c *cache.Cache) map[string]wire.SealedQuery {
	queries := map[string]wire.SealedQuery{}
	c.Entries(func(e *cache.Entry) {
		q := e.Query
		if len(q.Params) == 0 {
			q.Params = nil
		}
		queries[q.TemplateID+"|"+q.Key] = q
	})
	return queries
}

// TestClientKeepsItsResults: a client over a framed hop opens each answer
// inside the frame it arrived in, and what it returns is its own — at
// every exposure level, 200 results held across 1 000 further queries,
// whose answers are read into the pooled buffers the 200 were opened
// from, keep the fingerprints and column names they had on receipt. The
// results of one template share its column names (wire.Codec), so the
// names are read, never written.
func TestClientKeepsItsResults(t *testing.T) {
	var queries []workload.Op
	for _, op := range bboardScript(100) {
		if op.Template.Kind == template.KQuery {
			queries = append(queries, op)
		}
	}
	for _, exp := range allExposures {
		c, _ := lendingFleet(t, exp, 1, nil)
		var held []*dssp.QueryResult
		var prints []string
		rows := 0
		columns := map[string]*string{} // each template's first held result's names
		shared := 0
		for i := 0; i < 1200; i++ {
			op := queries[i%len(queries)]
			params := make([]interface{}, len(op.Params))
			for j, v := range op.Params {
				params[j] = v
			}
			r, err := c.Query(context.Background(), op.Template, params...)
			if err != nil {
				t.Fatalf("%v: %s: %v", exp, op.Template.ID, err)
			}
			if i < 200 {
				held, prints = append(held, r), append(prints, fmt.Sprintf("%q %s", r.Result.Columns, r.Result.Fingerprint(false)))
				rows += r.Outcome.Rows
				if first, ok := columns[op.Template.ID]; !ok {
					columns[op.Template.ID] = unsafe.SliceData(r.Result.Columns)
				} else if first == unsafe.SliceData(r.Result.Columns) {
					shared++
				}
			}
		}
		if rows == 0 {
			t.Fatalf("%v: the held results have no rows", exp)
		}
		if shared == 0 {
			t.Fatalf("%v: no two held results of a template share its column names", exp)
		}
		for i, r := range held {
			if got := fmt.Sprintf("%q %s", r.Result.Columns, r.Result.Fingerprint(false)); got != prints[i] {
				t.Fatalf("%v: held result %d (%s) changed after later queries:\n got %q\nwant %q", exp, i, queries[i%len(queries)].Template.ID, got, prints[i])
			}
		}
	}
}
