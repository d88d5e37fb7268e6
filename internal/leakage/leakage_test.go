package leakage_test

import (
	"maps"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/encrypt"
	"dssp/internal/engine"
	"dssp/internal/leakage"
	"dssp/internal/obs"
	"dssp/internal/simrun"
	"dssp/internal/sqlparse"
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

// feed seals each op under the codec's exposure assignment — so the
// observer sees exactly what real sealing reveals at that level — and
// plays it to the observer the way the pipeline does. It returns the bytes
// of the results that crossed, which are plaintext only at view exposure.
func feed(t *testing.T, o *leakage.Observer, now *time.Duration, codec *wire.Codec, app *template.App, ops []traceOp) (resultBytes int64) {
	t.Helper()
	for _, op := range ops {
		params := []sqlparse.Value{op.param}
		if q := app.Query(op.tmpl); q != nil {
			sq, err := codec.SealQuery(q, params)
			if err != nil {
				t.Fatal(err)
			}
			res := &engine.Result{Columns: []string{"c"}}
			for _, v := range op.rows {
				res.Rows = append(res.Rows, []sqlparse.Value{iv(v)})
			}
			sealed := codec.SealResult(q, res)
			o.ObserveQuery(sq, op.hit)
			o.ObserveResult(sq, sealed)
			resultBytes += int64(sealed.Size())
			continue
		}
		su, err := codec.SealUpdate(app.Update(op.tmpl), params)
		if err != nil {
			t.Fatal(err)
		}
		*now = op.sentAt
		o.ObserveUpdate(su)
		*now = op.invalidatedAt
		o.ObserveInvalidation(su, op.dropped)
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

// TestMergeTwoVantagePoints splits the trace across two nodes and checks
// the fleet-wide view: counts and bytes add, the hottest key is the
// hotter node's, a template seen on both nodes is one visible template,
// and the fractions are recomputed from the merged bytes.
func TestMergeTwoVantagePoints(t *testing.T) {
	a, _ := observe(t, "node-0", template.ExpStmt, trace[:4]) // Q1 bear ×2, Q2, the dropping U1
	b, _ := observe(t, "node-1", template.ExpStmt, trace[4:]) // Q1 kite, the idle U1
	m := leakage.Merge("fleet", a, b)
	whole, _ := observe(t, "fleet", template.ExpStmt, trace)

	if m.Vantage != "fleet" || m.Queries != 4 || m.Hits != 1 || m.Updates != 2 {
		t.Errorf("merged: vantage %q, %d queries, %d hits, %d updates; want fleet, 4, 1, 2", m.Vantage, m.Queries, m.Hits, m.Updates)
	}
	if m.DistinctKeys != 3 || m.KeyAccesses != 4 || m.MaxKeyAccesses != 2 {
		t.Errorf("merged: %d distinct keys, %d accesses, hottest %d; want 3, 4, 2", m.DistinctKeys, m.KeyAccesses, m.MaxKeyAccesses)
	}
	if a.VisibleTemplates != 3 || b.VisibleTemplates != 2 || m.VisibleTemplates != 3 ||
		!maps.Equal(m.TemplateFreq, map[string]int64{"Q1": 3, "Q2": 1, "U1": 2}) {
		t.Errorf("visible templates %d + %d merged to %d %v; want 3 + 2 → 3 (Q1 and U1 are on both nodes)",
			a.VisibleTemplates, b.VisibleTemplates, m.VisibleTemplates, m.TemplateFreq)
	}
	if m.VisibleParams != whole.VisibleParams || m.PlaintextBytes != whole.PlaintextBytes ||
		m.SealedBytes != whole.SealedBytes || m.PlaintextFrac != whole.PlaintextFrac {
		t.Errorf("merged bytes (%d params, %d plain, %d sealed, frac %v) differ from one observer of the whole trace (%d, %d, %d, %v)",
			m.VisibleParams, m.PlaintextBytes, m.SealedBytes, m.PlaintextFrac,
			whole.VisibleParams, whole.PlaintextBytes, whole.SealedBytes, whole.PlaintextFrac)
	}
	if m.Invalidations != 2 || m.InvalidatedEntries != 2 || m.CorrelatedInvalidations != 1 {
		t.Errorf("merged: %d invalidations dropping %d entries, %d correlated; want 2, 2, 1",
			m.Invalidations, m.InvalidatedEntries, m.CorrelatedInvalidations)
	}
	// 15 ms at node-0, 10 ms at node-1: the mean of the vantage means.
	if want := 12500 * time.Microsecond; m.MeanInvalidationDelay != want {
		t.Errorf("merged mean delay %v, want %v", m.MeanInvalidationDelay, want)
	}
	if got := leakage.Merge("empty"); got.Vantage != "empty" || got.PlaintextFrac != 0 || got.TemplateFreq != nil {
		t.Errorf("merge of nothing = %+v, want a zero report", got)
	}
}
