package leakage_test

import (
	"context"
	"fmt"
	"maps"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/engine"
	"dssp/internal/homeserver"
	"dssp/internal/leakage"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/simrun"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// traceOp is one step of the hand-written trace an observer is fed: a
// query (with whether the cache answered it and the result that came
// back), or an update with the virtual times it was routed and its
// invalidation applied, and the entries that invalidation dropped.
type traceOp struct {
	tmpl  string
	param sqlparse.Value

	hit  bool
	rows []int64 // query: the result's single column

	sentAt, invalidatedAt time.Duration // update
	dropped               int
}

var (
	iv, sv = sqlparse.IntVal, sqlparse.StringVal

	// Three distinct query instances, one of them asked twice; two
	// updates, one of which drops entries. Update→invalidation delays are
	// 15 ms and 10 ms.
	trace = []traceOp{
		{tmpl: "Q1", param: sv("bear"), rows: []int64{1, 3}},
		{tmpl: "Q1", param: sv("bear"), rows: []int64{1, 3}, hit: true},
		{tmpl: "Q2", param: iv(1), rows: []int64{10}},
		{tmpl: "U1", param: iv(1), sentAt: 10 * time.Millisecond, invalidatedAt: 25 * time.Millisecond, dropped: 2},
		{tmpl: "Q1", param: sv("kite"), rows: []int64{5}},
		{tmpl: "U1", param: iv(999), sentAt: 30 * time.Millisecond, invalidatedAt: 40 * time.Millisecond},
	}
)

// stubNode is a node that does what the trace says: its cache hits or
// misses as the op says and drops the op's count, and its home confirms
// every update.
type stubNode struct {
	res     wire.SealedResult
	hit     bool
	dropped int
}

func (n *stubNode) HandleQuery(wire.SealedQuery) (wire.SealedResult, bool) {
	if !n.hit {
		return wire.SealedResult{}, false
	}
	return n.res, true
}

func (n *stubNode) StoreResult(wire.SealedQuery, wire.SealedResult, bool) {}

func (n *stubNode) OnUpdateCompleted(wire.SealedUpdate) int { return n.dropped }

func (n *stubNode) OnUpdatesCompleted(us []wire.SealedUpdate) []int {
	counts := make([]int, len(us))
	for i := range counts {
		counts[i] = n.dropped
	}
	return counts
}

func (n *stubNode) ExecQuery(_ context.Context, _ wire.SealedQuery, done func(pipeline.ExecQueryResult, error)) {
	done(pipeline.ExecQueryResult{Result: n.res}, nil)
}

func (n *stubNode) ExecUpdate(_ context.Context, _ wire.SealedUpdate, done func(pipeline.ExecUpdateResult, error)) {
	done(pipeline.ExecUpdateResult{}, nil)
}

// feed seals each op under the codec's exposure assignment — so the
// observer sees exactly what real sealing reveals at that level — and
// plays it through the observer's decorators of a stub node's cache and
// transport, in the order a node's pipeline calls them: a query's lookup,
// and on a miss the store of home's answer; an update's forward home, and
// its invalidation once confirmed. It returns the bytes of the results
// that crossed, which are plaintext only at view exposure.
func feed(t *testing.T, o *leakage.Observer, now *time.Duration, codec *wire.Codec, app *template.App, ops []traceOp) (resultBytes int64) {
	t.Helper()
	node := &stubNode{}
	nodeCache, home := o.Cache(node), o.Transport(node)
	for _, op := range ops {
		params := []sqlparse.Value{op.param}
		if q := app.Query(op.tmpl); q != nil {
			sq, err := codec.SealQuery(q, params)
			if err != nil {
				t.Fatal(err)
			}
			res := &engine.Result{Columns: []string{"c"}}
			for _, v := range op.rows {
				res.Vals = append(res.Vals, iv(v))
			}
			node.res, node.hit = codec.SealResult(q, res), op.hit
			if _, hit := nodeCache.HandleQuery(sq); !hit {
				nodeCache.StoreResult(sq, node.res, false)
			}
			resultBytes += int64(node.res.Size())
			continue
		}
		su, err := codec.SealUpdate(app.Update(op.tmpl), params)
		if err != nil {
			t.Fatal(err)
		}
		node.dropped = op.dropped
		*now = op.sentAt
		home.ExecUpdate(context.Background(), su, func(pipeline.ExecUpdateResult, error) {})
		*now = op.invalidatedAt
		nodeCache.OnUpdateCompleted(su)
	}
	return resultBytes
}

func observe(t *testing.T, vantage string, exp template.Exposure, ops []traceOp) (leakage.Report, int64) {
	t.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), simrun.UniformExposures(app, exp))
	var now time.Duration
	o := leakage.NewObserver(vantage, obs.ClockFunc(func() time.Duration { return now }))
	resultBytes := feed(t, o, &now, codec, app, ops)
	return o.Report(), resultBytes
}

// TestReportByExposure pins what the trace reveals at each exposure
// level: the access pattern is there at every level, template identities
// from template up, parameter values from stmt up, result rows at view
// only — and an update links to the entries it killed exactly when its
// template is readable.
func TestReportByExposure(t *testing.T) {
	const templateIDBytes = 6 * 2            // six statements, two-byte template IDs
	const paramBytes = 6 + 6 + 1 + 1 + 6 + 3 // 'bear' 'bear' 1 1 'kite' 999, as the adversary reads them
	named := map[string]int64{"Q1": 3, "Q2": 1, "U1": 2}
	cases := []struct {
		exp              template.Exposure
		visibleTemplates int
		templateFreq     map[string]int64
		visibleParams    int64
		plaintextBytes   int64 // before the results, which count at view only
		correlated       int64
	}{
		// Blind queries land in one anonymous bucket; blind updates name
		// nothing at all.
		{template.ExpBlind, 0, map[string]int64{obs.BlindTemplate: 4}, 0, 0, 0},
		{template.ExpTemplate, 3, named, 0, templateIDBytes, 1},
		{template.ExpStmt, 3, named, 6, templateIDBytes + paramBytes, 1},
		{template.ExpView, 3, named, 6, templateIDBytes + paramBytes, 1},
	}
	var prev leakage.Report
	var prevResultBytes int64
	for i, c := range cases {
		r, resultBytes := observe(t, "node", c.exp, trace)
		if r.Vantage != "node" || r.Queries != 4 || r.Hits != 1 || r.Updates != 2 {
			t.Errorf("%v: vantage %q, %d queries, %d hits, %d updates; want node, 4, 1, 2", c.exp, r.Vantage, r.Queries, r.Hits, r.Updates)
		}
		// Sealed keys are deterministic and injective at every level: the
		// adversary always learns which item is hot.
		if r.DistinctKeys != 3 || r.KeyAccesses != 4 || r.MaxKeyAccesses != 2 {
			t.Errorf("%v: %d distinct keys, %d accesses, hottest %d; want 3, 4, 2", c.exp, r.DistinctKeys, r.KeyAccesses, r.MaxKeyAccesses)
		}
		if r.VisibleTemplates != c.visibleTemplates || !maps.Equal(r.TemplateFreq, c.templateFreq) {
			t.Errorf("%v: %d visible templates %v; want %d %v", c.exp, r.VisibleTemplates, r.TemplateFreq, c.visibleTemplates, c.templateFreq)
		}
		if r.VisibleParams != c.visibleParams {
			t.Errorf("%v: %d visible parameters, want %d", c.exp, r.VisibleParams, c.visibleParams)
		}
		wantPlain := c.plaintextBytes
		if c.exp == template.ExpView {
			wantPlain += resultBytes
		}
		if r.PlaintextBytes != wantPlain {
			t.Errorf("%v: %d plaintext bytes, want %d", c.exp, r.PlaintextBytes, wantPlain)
		}
		if want := float64(wantPlain) / float64(wantPlain+r.SealedBytes); r.SealedBytes == 0 || r.PlaintextFrac != want {
			t.Errorf("%v: plaintext fraction %v over %d sealed bytes, want %v", c.exp, r.PlaintextFrac, r.SealedBytes, want)
		}
		if i > 0 && r.PlaintextFrac <= prev.PlaintextFrac {
			t.Errorf("%v: plaintext fraction %v is not above %v's %v", c.exp, r.PlaintextFrac, cases[i-1].exp, prev.PlaintextFrac)
		}
		// From stmt to view the only change is that the result rows stop
		// being ciphertext.
		if c.exp == template.ExpView && r.SealedBytes != prev.SealedBytes-prevResultBytes {
			t.Errorf("view: %d sealed bytes, want stmt's %d less its %d of result ciphertext", r.SealedBytes, prev.SealedBytes, prevResultBytes)
		}
		if r.Invalidations != 2 || r.InvalidatedEntries != 2 || r.CorrelatedInvalidations != c.correlated {
			t.Errorf("%v: %d invalidations dropping %d entries, %d correlated; want 2, 2, %d",
				c.exp, r.Invalidations, r.InvalidatedEntries, r.CorrelatedInvalidations, c.correlated)
		}
		// Timing leaks at every level: the trace ID pairs an update with
		// its invalidation whatever the statement hides.
		if want := 12500 * time.Microsecond; r.MeanInvalidationDelay != want {
			t.Errorf("%v: mean update→invalidation delay %v, want %v", c.exp, r.MeanInvalidationDelay, want)
		}
		prev, prevResultBytes = r, resultBytes
	}
}

// holdingTransport parks the queries it reaches while hold is set, until
// release, so that a second miss of the same key joins the first's flight.
type holdingTransport struct {
	inner  pipeline.Transport
	hold   bool
	parked []func()
}

func (t *holdingTransport) ExecQuery(ctx context.Context, sq wire.SealedQuery, done func(pipeline.ExecQueryResult, error)) {
	if t.hold {
		t.parked = append(t.parked, func() { t.inner.ExecQuery(ctx, sq, done) })
		return
	}
	t.inner.ExecQuery(ctx, sq, done)
}

func (t *holdingTransport) ExecUpdate(ctx context.Context, su wire.SealedUpdate, done func(pipeline.ExecUpdateResult, error)) {
	t.inner.ExecUpdate(ctx, su, done)
}

func (t *holdingTransport) release() {
	t.hold = false
	for _, f := range t.parked {
		f()
	}
	t.parked = nil
}

// TestAuditSeesWhatTheNodeDoes drives a real node pipeline built over the
// observer's decorators, invalidating inline and per monitoring interval,
// through a coalesced miss and an update fanned in from another node. The
// report must count what the node's cache counted, and every sealed byte
// that crossed the node: each query's statement and lookup token, each
// result once (a hit served, or a flight's answer stored), and each
// update the node forwarded home.
func TestAuditSeesWhatTheNodeDoes(t *testing.T) {
	for _, interval := range []time.Duration{0, time.Second} {
		t.Run(fmt.Sprintf("interval=%v", interval), func(t *testing.T) {
			app := apps.Toystore()
			codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), simrun.UniformExposures(app, template.ExpBlind))
			db := storage.NewDatabase(app.Schema)
			for _, toy := range []storage.Row{{iv(1), sv("bear"), iv(10)}, {iv(2), sv("truck"), iv(3)}, {iv(3), sv("bear"), iv(7)}, {iv(5), sv("kite"), iv(25)}} {
				if err := db.Insert("toys", toy); err != nil {
					t.Fatal(err)
				}
			}
			home := homeserver.New(db, app, codec)
			node := dssp.NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{})
			held := &holdingTransport{inner: pipeline.NewDirectTransport(home)}
			var flush func()
			o := leakage.NewObserver("node", nil)
			p := pipeline.New(o.Cache(node), o.Transport(held), nil, pipeline.Options{
				MonitorInterval: interval,
				After:           func(_ time.Duration, fn func()) { flush = fn },
			})
			ctx := context.Background()

			var queries, hits, coalesced, invalidated, sealed int64
			ask := func(tmpl string, param sqlparse.Value) {
				sq, err := codec.SealQuery(app.Query(tmpl), []sqlparse.Value{param})
				if err != nil {
					t.Fatal(err)
				}
				queries++
				sealed += int64(len(sq.Opaque) + len(sq.Key))
				p.Query(ctx, sq, func(r pipeline.QueryReply, err error) {
					switch {
					case err != nil:
						t.Error(err)
					case r.Coalesced:
						coalesced++
					default:
						sealed += int64(len(r.Result.Cipher))
						if r.Hit {
							hits++
						}
					}
				})
			}
			sealUpdate := func(id int64) wire.SealedUpdate {
				su, err := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{iv(id)})
				if err != nil {
					t.Fatal(err)
				}
				return su
			}

			ask("Q2", iv(1)) // miss
			ask("Q2", iv(1)) // hit
			ask("Q1", sv("bear"))
			held.hold = true
			ask("Q2", iv(3)) // miss, parked at home
			ask("Q2", iv(3)) // joins its flight
			held.release()
			ask("Q2", iv(3)) // hit

			su := sealUpdate(2)
			sealed += int64(len(su.Opaque))
			p.Update(ctx, su, func(r pipeline.UpdateReply, err error) {
				if err != nil {
					t.Error(err)
				}
				invalidated += int64(r.Invalidated)
			})
			// Another node forwarded this one: it reaches this node only as
			// fan-out into its invalidation monitor.
			fan := sealUpdate(5)
			_, seq, err := home.ExecUpdate(fan)
			if err != nil {
				t.Fatal(err)
			}
			p.MonitorUpdate(fan, seq, func(n int) { invalidated += int64(n) })
			if interval > 0 {
				if flush == nil {
					t.Fatal("no flush was scheduled")
				}
				flush()
			}
			ask("Q2", iv(1)) // miss: blind updates drop every entry

			st := node.Cache.Stats()
			r := o.Report()
			if hits != 2 || coalesced != 1 || invalidated == 0 {
				t.Fatalf("the script made %d hits, %d coalesced misses and %d invalidations; want 2, 1 and some", hits, coalesced, invalidated)
			}
			if r.Queries != queries || r.Queries != int64(st.Hits+st.Misses) || r.Hits != hits || r.Hits != int64(st.Hits) {
				t.Errorf("audit saw %d queries, %d hits; %d were asked, the cache counted %d hits and %d misses", r.Queries, r.Hits, queries, st.Hits, st.Misses)
			}
			if r.Updates != 1 {
				t.Errorf("audit saw %d updates forwarded, want 1", r.Updates)
			}
			if r.Invalidations != 2 || r.Invalidations != int64(st.UpdatesSeen) || r.InvalidatedEntries != invalidated || r.InvalidatedEntries != int64(st.Invalidations) {
				t.Errorf("audit saw %d invalidations dropping %d entries; want 2 (the cache saw %d updates) dropping %d (the cache counted %d)",
					r.Invalidations, r.InvalidatedEntries, st.UpdatesSeen, invalidated, st.Invalidations)
			}
			if r.PlaintextBytes != 0 || r.SealedBytes != sealed {
				t.Errorf("audit saw %d plaintext and %d sealed bytes; want 0 and %d", r.PlaintextBytes, r.SealedBytes, sealed)
			}
		})
	}
}
