package invalidate

import (
	"math/rand"
	"sync"
	"testing"

	"dssp/internal/engine"
	"dssp/internal/sqlparse"
)

// TestDecidePreparedZeroAlloc pins the point of preparing: once a
// PreparedUpdate exists and the query info is warm, a decision allocates
// nothing, at every class.
func TestDecidePreparedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse; allocation counts are meaningless")
	}
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

	// Warm the per-template query info and the scratch pool.
	for _, pu := range prepared {
		for _, v := range views {
			iv.DecidePrepared(ViewInspection, pu, v)
		}
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
