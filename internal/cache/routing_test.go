package cache

import (
	"testing"

	"dssp/internal/apps"
	"dssp/internal/invalidate"
	"dssp/internal/obs"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// stmtExposures exposes every toystore template at statement level, so
// update routing and statement inspection are both in play.
func stmtExposures() map[string]template.Exposure {
	app := apps.Toystore()
	m := make(map[string]template.Exposure)
	for _, q := range app.Queries {
		m[q.ID] = template.ExpStmt
	}
	for _, u := range app.Updates {
		m[u.ID] = template.ExpStmt
	}
	return m
}

// TestOnUpdateSkipsAZeroBuckets is the acceptance check for the routed
// fast path at the cache level: an update's invalidation pass must not
// even visit the bucket of a query template the analysis proved A = 0 —
// no decision is logged for it — while the unrouted oracle visits it and
// logs the (necessarily Dropped=0) decision.
func TestOnUpdateSkipsAZeroBuckets(t *testing.T) {
	run := func(t *testing.T, unrouted bool) (*Cache, Stats, []Decision) {
		c, codec, app := testStack(t, stmtExposures(), Options{})
		// Populate one entry per template. Q3 (customers x credit_card) is
		// untouchable by U1 (DELETE FROM toys): A = 0 across relations.
		c.Store(seal(t, codec, app.Query("Q1"), sqlparse.StringVal("bear")), codec.SealResult(app.Query("Q1"), result(1)), false)
		c.Store(seal(t, codec, app.Query("Q2"), sqlparse.IntVal(5)), codec.SealResult(app.Query("Q2"), result(25)), false)
		c.Store(seal(t, codec, app.Query("Q3"), sqlparse.StringVal("15213")), codec.SealResult(app.Query("Q3"), result(7)), false)
		su, err := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(404)})
		if err != nil {
			t.Fatal(err)
		}
		if unrouted {
			oracleOnUpdate(c, su, true)
		} else {
			c.OnUpdate(su)
		}
		return c, c.Stats(), c.Decisions()
	}

	routed, rStats, rLog := run(t, false)
	unrouted, uStats, uLog := run(t, true)

	// The A = 0 entry survives on both paths.
	for name, c := range map[string]*Cache{"routed": routed, "unrouted": unrouted} {
		found := false
		c.Entries(func(e *Entry) {
			if e.Query.TemplateID == "Q3" {
				found = true
			}
		})
		if !found {
			t.Errorf("%s: the A=0 entry (Q3) was invalidated", name)
		}
	}

	// The routed pass never visited Q3: no decision mentions it, and the
	// skip counter owns it instead.
	for _, d := range rLog {
		if d.QueryTemplate == "Q3" {
			t.Errorf("routed pass logged a decision for the A=0 bucket: %+v", d)
		}
	}
	if rStats.BucketsSkipped == 0 {
		t.Error("routed pass skipped no buckets")
	}
	if rStats.BucketsVisited != len(rLog) {
		t.Errorf("BucketsVisited = %d, decisions logged = %d", rStats.BucketsVisited, len(rLog))
	}

	// The unrouted pass visited Q3, decided DNI, and skipped nothing.
	sawQ3 := false
	for _, d := range uLog {
		if d.QueryTemplate == "Q3" {
			sawQ3 = true
			if d.Dropped != 0 {
				t.Errorf("unrouted pass dropped the A=0 bucket: %+v", d)
			}
		}
	}
	if !sawQ3 {
		t.Error("unrouted pass never visited the A=0 bucket")
	}
	if uStats.BucketsSkipped != 0 {
		t.Errorf("unrouted BucketsSkipped = %d, want 0", uStats.BucketsSkipped)
	}

	// Identical outcomes: same invalidation total, same surviving entries.
	if rStats.Invalidations != uStats.Invalidations {
		t.Errorf("invalidations: routed %d, unrouted %d", rStats.Invalidations, uStats.Invalidations)
	}
	if routed.Len() != unrouted.Len() {
		t.Errorf("Len: routed %d, unrouted %d", routed.Len(), unrouted.Len())
	}
}

// forgedTrace is the trace of a forged update, so its decisions can be
// told apart in a log.
var forgedTrace = obs.TraceID{Proc: 0xf0, Seq: 1}

// TestOnUpdateUnknownTemplateDropsAll: an update claiming a template ID
// the application does not define (only a byzantine client can produce
// one) reveals nothing to route by, so the cache must conservatively
// invalidate everything rather than consult the index — or panic.
func TestOnUpdateUnknownTemplateDropsAll(t *testing.T) {
	c, codec, app := testStack(t, stmtExposures(), Options{})
	c.Store(seal(t, codec, app.Query("Q2"), sqlparse.IntVal(5)), codec.SealResult(app.Query("Q2"), result(25)), false)
	c.Store(seal(t, codec, app.Query("Q3"), sqlparse.StringVal("15213")), codec.SealResult(app.Query("Q3"), result(7)), false)
	dropped := c.OnUpdate(wire.SealedUpdate{
		Exposure:   template.ExpStmt,
		TraceID:    forgedTrace,
		TemplateID: "U99",
		Params:     []sqlparse.Value{sqlparse.IntVal(1)},
	})
	if dropped != 2 || c.Len() != 0 {
		t.Errorf("dropped = %d, Len = %d; forged template must blind-invalidate everything", dropped, c.Len())
	}
	for _, d := range c.Decisions() {
		if d.Class != invalidate.Blind.String() {
			t.Errorf("forged update decided %+v, want blind", d)
		}
	}
}

// TestDecisionLogBound: Options.DecisionLog overrides the default ring
// size, and the ring keeps the newest entries.
func TestDecisionLogBound(t *testing.T) {
	c, codec, app := testStack(t, stmtExposures(), Options{DecisionLog: 3})
	q := app.Query("Q2")
	for i := 0; i < 5; i++ {
		c.Store(seal(t, codec, q, sqlparse.IntVal(int64(i))), codec.SealResult(q, result(int64(i))), false)
		su, err := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		c.OnUpdate(su)
	}
	log := c.Decisions()
	if len(log) != 3 {
		t.Fatalf("log holds %d decisions, want 3", len(log))
	}
	// U1 hits Q2's bucket every round (A > 0); with one live entry per
	// round the newest three decisions remain.
	for _, d := range log {
		if d.UpdateTemplate != "U1" {
			t.Errorf("unexpected decision %+v", d)
		}
	}
}
