package cache

import (
	"testing"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/encrypt"
	"dssp/internal/engine"
	"dssp/internal/invalidate"
	"dssp/internal/obs"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
	"dssp/internal/wire"
)

func testStack(t testing.TB, exps map[string]template.Exposure, opts Options) (*Cache, *wire.Codec, *template.App) {
	t.Helper()
	app := apps.Toystore()
	master := make([]byte, encrypt.KeySize)
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(master), exps)
	inv := invalidate.New(app, core.Analyze(app, core.DefaultOptions()))
	return New(app, inv, opts), codec, app
}

func seal(t testing.TB, codec *wire.Codec, tm *template.Template, params ...sqlparse.Value) wire.SealedQuery {
	t.Helper()
	sq, err := codec.SealQuery(tm, params)
	if err != nil {
		t.Fatal(err)
	}
	return sq
}

func result(rows ...int64) *engine.Result {
	r := &engine.Result{Columns: []string{"v"}}
	for _, v := range rows {
		r.Rows = append(r.Rows, []sqlparse.Value{sqlparse.IntVal(v)})
	}
	return r
}

func TestLookupStoreHitMiss(t *testing.T) {
	c, codec, app := testStack(t, nil, Options{})
	q := app.Query("Q2")
	sq := seal(t, codec, q, sqlparse.IntVal(5))
	if _, hit := c.Lookup(sq); hit {
		t.Fatal("hit on empty cache")
	}
	c.Store(sq, codec.SealResult(q, result(25)), false)
	got, hit := c.Lookup(sq)
	if !hit {
		t.Fatal("miss after store")
	}
	if got.Result.Rows[0][0].Int != 25 {
		t.Errorf("wrong result: %v", got.Result.Rows)
	}
	// A different parameter is a different entry.
	if _, hit := c.Lookup(seal(t, codec, q, sqlparse.IntVal(6))); hit {
		t.Error("hit for different params")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Stores != 1 {
		t.Errorf("stats: %+v", st)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestEmptyResultsNotCached(t *testing.T) {
	c, codec, app := testStack(t, nil, Options{})
	q := app.Query("Q2")
	sq := seal(t, codec, q, sqlparse.IntVal(5))
	c.Store(sq, codec.SealResult(q, result()), true)
	if c.Len() != 0 {
		t.Error("empty result cached")
	}
	// Encrypted empty results are caught via the hint.
	c2, codec2, app2 := testStack(t, map[string]template.Exposure{"Q2": template.ExpStmt}, Options{})
	q2 := app2.Query("Q2")
	sq2 := seal(t, codec2, q2, sqlparse.IntVal(5))
	c2.Store(sq2, codec2.SealResult(q2, result()), true)
	if c2.Len() != 0 {
		t.Error("encrypted empty result cached")
	}
}

func TestOnUpdateTemplateLevel(t *testing.T) {
	c, codec, app := testStack(t, nil, Options{})
	// Cache Q1, Q2 (toys) and Q3 (customers/credit_card) entries.
	c.Store(seal(t, codec, app.Query("Q1"), sqlparse.StringVal("bear")), codec.SealResult(app.Query("Q1"), result(1)), false)
	c.Store(seal(t, codec, app.Query("Q2"), sqlparse.IntVal(5)), codec.SealResult(app.Query("Q2"), result(25)), false)
	c.Store(seal(t, codec, app.Query("Q3"), sqlparse.StringVal("15213")), codec.SealResult(app.Query("Q3"), result(7)), false)

	// U1(5) at stmt exposure with view-level queries: per-entry decisions.
	su, err := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(5)})
	if err != nil {
		t.Fatal(err)
	}
	dropped := c.OnUpdate(su)
	// Q1('bear') survives at view level only if toy 5 is absent from the
	// result; with a bare result(1) the entry's view holds toy_id=1, so
	// MVIS keeps it. Q2(5) must go. Q3 is ignorable.
	if dropped != 1 || c.Len() != 2 {
		t.Errorf("dropped=%d len=%d", dropped, c.Len())
	}
	if _, hit := c.Lookup(seal(t, codec, app.Query("Q2"), sqlparse.IntVal(5))); hit {
		t.Error("Q2(5) not invalidated")
	}
	if _, hit := c.Lookup(seal(t, codec, app.Query("Q3"), sqlparse.StringVal("15213"))); !hit {
		t.Error("ignorable Q3 invalidated")
	}
}

func TestOnUpdateBlindUpdate(t *testing.T) {
	exps := map[string]template.Exposure{"U1": template.ExpBlind}
	c, codec, app := testStack(t, exps, Options{})
	c.Store(seal(t, codec, app.Query("Q3"), sqlparse.StringVal("15213")), codec.SealResult(app.Query("Q3"), result(7)), false)
	su, _ := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(5)})
	if dropped := c.OnUpdate(su); dropped != 1 || c.Len() != 0 {
		t.Errorf("blind update must clear everything: dropped=%d len=%d", dropped, c.Len())
	}
}

func TestOnUpdateBlindQueryEntries(t *testing.T) {
	exps := map[string]template.Exposure{"Q3": template.ExpBlind}
	c, codec, app := testStack(t, exps, Options{})
	sq := seal(t, codec, app.Query("Q3"), sqlparse.StringVal("15213"))
	if sq.TemplateID != "" {
		t.Fatal("blind query leaked template")
	}
	c.Store(sq, codec.SealResult(app.Query("Q3"), result(7)), false)
	// Any update kills hidden-template entries, even ignorable ones.
	su, _ := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(5)})
	if dropped := c.OnUpdate(su); dropped != 1 {
		t.Errorf("dropped = %d", dropped)
	}
}

func TestOnUpdateTemplateExposureDropsBucket(t *testing.T) {
	exps := map[string]template.Exposure{"Q2": template.ExpTemplate, "U1": template.ExpTemplate}
	c, codec, app := testStack(t, exps, Options{})
	q2 := app.Query("Q2")
	c.Store(seal(t, codec, q2, sqlparse.IntVal(5)), codec.SealResult(q2, result(25)), false)
	c.Store(seal(t, codec, q2, sqlparse.IntVal(6)), codec.SealResult(q2, result(30)), false)
	su, _ := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(5)})
	if dropped := c.OnUpdate(su); dropped != 2 {
		t.Errorf("template-level invalidation must drop the whole bucket: %d", dropped)
	}
}

func TestEntriesVisitor(t *testing.T) {
	c, codec, app := testStack(t, nil, Options{})
	c.Store(seal(t, codec, app.Query("Q2"), sqlparse.IntVal(5)), codec.SealResult(app.Query("Q2"), result(25)), false)
	n := 0
	c.Entries(func(e *Entry) {
		n++
		if e.PlaintextResult() == nil {
			t.Error("view-exposed entry lost its plaintext")
		}
	})
	if n != 1 {
		t.Errorf("visited %d entries", n)
	}
}

// An entry outlives the request that fetched it, so it keeps none of that
// request's trace metadata — stored, imported, or exported again. Decision
// logs carry the update's trace, which is another matter.
func TestEntriesDropRequestMetadata(t *testing.T) {
	c, codec, app := testStack(t, nil, Options{})
	q := app.Query("Q2")
	sq := seal(t, codec, q, sqlparse.IntVal(5))
	if sq.TraceID.IsZero() {
		t.Fatal("a sealed query should carry a trace ID (the hazard under test)")
	}
	sq.ParentSpan = obs.SpanID{Proc: 1, Seq: 1}
	c.Store(sq, codec.SealResult(q, result(25)), false)

	carried := c.ExportBuckets([]string{"Q2"})
	carried[0].Query.TraceID, carried[0].Query.ParentSpan = sq.TraceID, sq.ParentSpan
	dst, _, _ := testStack(t, nil, Options{})
	if dst.ImportBuckets(carried) != 1 {
		t.Fatal("entry not imported")
	}
	for name, cache := range map[string]*Cache{"stored": c, "imported": dst} {
		cache.Entries(func(e *Entry) {
			if !e.Query.TraceID.IsZero() || !e.Query.ParentSpan.IsZero() {
				t.Errorf("%s entry keeps trace %v, parent span %v", name, e.Query.TraceID, e.Query.ParentSpan)
			}
			if e.Query.Key != sq.Key || e.Query.TemplateID != "Q2" || len(e.Query.Params) != 1 {
				t.Errorf("%s entry lost what the invalidator reads: %+v", name, e.Query)
			}
		})
		if _, hit := cache.Lookup(sq); !hit {
			t.Errorf("%s entry does not hit", name)
		}
	}
}
