package invalidate

import (
	"math/rand"
	"sync"
	"testing"

	"dssp/internal/engine"
	"dssp/internal/sqlparse"
)

// TestDecidePreparedZeroAlloc pins the point of preparing and of pair
// plans: once a PreparedUpdate exists, a decision allocates nothing, at
// every class — New compiled every pair's plan, so there is no memo or
// pool left to warm.
func TestDecidePreparedZeroAlloc(t *testing.T) {
	app := richToystore()
	iv := newInvalidator(app)
	rng := rand.New(rand.NewSource(7))
	db := randomToystoreDB(t, rng, app)

	var views []CachedView
	for _, q := range app.Queries {
		params := randomParams(rng, db, q)
		res, err := engine.ExecQuery(db, q.Stmt.(*sqlparse.SelectStmt), params)
		if err != nil || res.Len() == 0 {
			continue
		}
		views = append(views, CachedView{Template: q, Params: params, Result: res})
	}
	if len(views) < 3 {
		t.Fatal("generator produced too few cached views")
	}
	var prepared []*PreparedUpdate
	for _, u := range app.Updates {
		prepared = append(prepared, iv.Prepare(UpdateInstance{Template: u, Params: randomParams(rng, db, u)}))
	}

	for _, class := range []Class{Blind, TemplateInspection, StatementInspection, ViewInspection} {
		allocs := testing.AllocsPerRun(100, func() {
			for _, pu := range prepared {
				for _, v := range views {
					iv.DecidePrepared(class, pu, v)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%v: DecidePrepared allocated %.1f times per full pass, want 0", class, allocs)
		}
	}
}

// TestPreparedUpdateConcurrent pins the documented immutability contract:
// one PreparedUpdate shared by many goroutines deciding different entries
// must race-free produce stable decisions (run under -race in CI).
func TestPreparedUpdateConcurrent(t *testing.T) {
	app := richToystore()
	iv := newInvalidator(app)
	rng := rand.New(rand.NewSource(3))
	db := randomToystoreDB(t, rng, app)

	var views []CachedView
	for _, q := range app.Queries {
		params := randomParams(rng, db, q)
		res, err := engine.ExecQuery(db, q.Stmt.(*sqlparse.SelectStmt), params)
		if err != nil || res.Len() == 0 {
			continue
		}
		views = append(views, CachedView{Template: q, Params: params, Result: res})
	}
	u := app.Updates[rng.Intn(len(app.Updates))]
	ui := UpdateInstance{Template: u, Params: randomParams(rng, db, u)}
	pu := iv.Prepare(ui)

	want := make([]Decision, len(views))
	for i, v := range views {
		want[i] = iv.DecidePrepared(ViewInspection, pu, v)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				for i, v := range views {
					if got := iv.DecidePrepared(ViewInspection, pu, v); got != want[i] {
						t.Errorf("concurrent decision drifted: %v != %v", got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPrepareIntoReusesItsArrays: one PreparedUpdate prepared in place for
// update after update — inserts, deletions and modifications in turn, so
// each finds the arrays an earlier kind left — decides what a fresh
// Prepare of the same instance decides, at every class, and once its
// arrays have grown, preparing allocates nothing.
func TestPrepareIntoReusesItsArrays(t *testing.T) {
	app := richToystore()
	iv := newInvalidator(app)
	rng := rand.New(rand.NewSource(11))
	db := randomToystoreDB(t, rng, app)

	var views []CachedView
	for _, q := range app.Queries {
		params := randomParams(rng, db, q)
		res, err := engine.ExecQuery(db, q.Stmt.(*sqlparse.SelectStmt), params)
		if err != nil || res.Len() == 0 {
			continue
		}
		views = append(views, CachedView{Template: q, Params: params, Result: res})
	}
	var reused PreparedUpdate
	var instances []UpdateInstance
	for round := 0; round < 20; round++ {
		for _, u := range app.Updates {
			ui := UpdateInstance{Template: u, Params: randomParams(rng, db, u)}
			instances = append(instances, ui)
			iv.PrepareInto(&reused, ui)
			fresh := iv.Prepare(ui)
			for _, class := range []Class{TemplateInspection, StatementInspection, ViewInspection} {
				for _, v := range views {
					if got, want := iv.DecidePrepared(class, &reused, v), iv.DecidePrepared(class, fresh, v); got != want {
						t.Fatalf("%s under %v against %s: reused %v, fresh %v", u.ID, class, v.Template.ID, got, want)
					}
				}
			}
		}
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(20, func() {
		for _, ui := range instances {
			iv.PrepareInto(&reused, ui)
		}
	}); allocs != 0 {
		t.Errorf("PrepareInto allocated %.1f times per pass over %d warm updates, want 0", allocs, len(instances))
	}
}

// BenchmarkPrepareHiddenInsert prepares an insertion whose parameters the
// node does not see — a template- or blind-exposure INSERT carries none —
// into a reused PreparedUpdate. It is gated in BENCH_allocs.json at 0
// allocations: the parameter count turns the insertion away before the
// engine would build an error to say the parameters are missing.
func BenchmarkPrepareHiddenInsert(b *testing.B) {
	app := richToystore()
	iv := newInvalidator(app)
	ui := UpdateInstance{Template: app.Update("U3")}
	var pu PreparedUpdate
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		iv.PrepareInto(&pu, ui)
	}
}
