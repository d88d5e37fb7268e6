package simrun_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/engine"
	"dssp/internal/invalidate"
	"dssp/internal/simrun"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
	"dssp/internal/workload"
)

// replay is a seeded session script — the pages the simulator's users
// would request, round-robin, without the clock — against the in-process
// deployment (dssp.NewClient) over a freshly populated master database.
type replay struct {
	app     *template.App
	exps    map[string]template.Exposure
	client  *dssp.Client
	master  *storage.Database
	session []workload.Session
	seed    int64
}

const replayUsers = 40

func newReplay(t *testing.T, b workload.Benchmark, exps map[string]template.Exposure, seed int64) *replay {
	t.Helper()
	app := b.App()
	r := &replay{app: app, exps: exps, master: populated(t, b, seed), seed: seed}
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), exps)
	r.client = dssp.NewClient(app, codec, r.master)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < replayUsers; i++ {
		r.session = append(r.session, b.NewSession(rand.New(rand.NewSource(rng.Int63()))))
	}
	return r
}

func populated(t *testing.T, b workload.Benchmark, seed int64) *storage.Database {
	t.Helper()
	db := storage.NewDatabase(b.App().Schema)
	if err := b.Populate(db, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	return db
}

// run requests pages pages. Queries go through the client; each update is
// handed to update, which must execute it (r.update does just that).
func (r *replay) run(t *testing.T, pages int, update func(workload.Op)) {
	t.Helper()
	for p := 0; p < pages; p++ {
		for _, op := range r.session[p%len(r.session)].NextPage() {
			if op.Template.Kind != template.KQuery {
				update(op)
			} else if _, err := r.client.Query(op.Template, anys(op.Params)...); err != nil {
				t.Fatalf("%s%v: %v", op.Template.ID, op.Params, err)
			}
		}
	}
}

// update executes one update through the client and returns how many
// entries it invalidated.
func (r *replay) update(t *testing.T, op workload.Op) int {
	t.Helper()
	_, n, err := r.client.Update(op.Template, anys(op.Params)...)
	if err != nil {
		t.Fatalf("%s%v: %v", op.Template.ID, op.Params, err)
	}
	return n
}

func anys(vals []sqlparse.Value) []interface{} {
	out := make([]interface{}, len(vals))
	for i, v := range vals {
		out[i] = v
	}
	return out
}

// TestViewContainsStatementOnReplay is the deterministic fact behind
// Figure 8's MVIS ≥ MSIS: view inspection runs statement inspection first
// and only ever overturns an Invalidate, so on one and the same script an
// unbounded MVIS cache holds, at every step, every entry the MSIS cache
// holds. Hits are no fewer and invalidations no more — exactly, whatever
// the seed; only the search for the user count is noisy.
func TestViewContainsStatementOnReplay(t *testing.T) {
	for _, mk := range []func() workload.Benchmark{
		func() workload.Benchmark { return apps.NewAuction() },
		func() workload.Benchmark { return apps.NewBBoard() },
		func() workload.Benchmark { return apps.NewBookstore() },
	} {
		stats := func(e template.Exposure) (string, cache.Stats) {
			b := mk() // sessions share state through the benchmark: one per replay
			r := newReplay(t, b, simrun.UniformExposures(b.App(), e), 3)
			r.run(t, 400, func(op workload.Op) { r.update(t, op) })
			return b.Name(), r.client.Node.Cache.Stats()
		}
		name, view := stats(template.ExpView)
		_, stmt := stats(template.ExpStmt)
		if view.Hits+view.Misses != stmt.Hits+stmt.Misses || view.UpdatesSeen != stmt.UpdatesSeen {
			t.Fatalf("%s: the two replays ran different scripts: %+v vs %+v", name, view, stmt)
		}
		if view.Hits < stmt.Hits || view.Invalidations > stmt.Invalidations {
			t.Errorf("%s: MVIS %d hits / %d invalidations, MSIS %d / %d", name,
				view.Hits, view.Invalidations, stmt.Hits, stmt.Invalidations)
		}
		t.Logf("%-9s MVIS %5d hits %5d invalidations   MSIS %5d hits %5d invalidations", name,
			view.Hits, view.Invalidations, stmt.Hits, stmt.Invalidations)
	}
}

// TestInvalidationPrecision measures what view inspection still drops
// that it need not have. A bookstore script runs under uniform view
// exposure; a shadow database trails the master by exactly the update in
// flight, so for every entry the update drops, the entry's query is
// executed on the shadow (before) and on the master (after). A drop is
// necessary when the two differ; it is a no-op's when the update wrote the
// values the row already had (outside the §2.1 model: the strategies may
// assume an update changes the database); otherwise it is unnecessary.
// Results that fill their LIMIT are tallied apart: there the modified row
// may sit past the cutoff, and what the view shows no longer settles it.
//
// The pairs whose unnecessary drops were all modifications of a row the
// result shows to be absent — customer greeting, title search, subject
// listing, cart — must have none left. `go test -v` prints the table;
// EXPERIMENTS.md keeps a copy.
func TestInvalidationPrecision(t *testing.T) {
	b := apps.NewBookstore()
	r := newReplay(t, b, simrun.UniformExposures(b.App(), template.ExpView), 1)
	shadow := populated(t, b, r.seed)

	type pair struct {
		update, query, class string
		full                 bool // the dropped result held LIMIT rows
	}
	type tally struct{ necessary, noop, unnecessary int }
	drops := make(map[pair]*tally)
	exec := func(db *storage.Database, q *template.Template, params []sqlparse.Value) string {
		sel := q.Stmt.(*sqlparse.SelectStmt)
		res, err := engine.ExecQuery(db, sel, params)
		if err != nil {
			t.Fatal(err)
		}
		return res.Fingerprint(len(sel.OrderBy) > 0)
	}
	entries := func() []*cache.Entry {
		var out []*cache.Entry
		r.client.Node.Cache.Entries(func(e *cache.Entry) { out = append(out, e) })
		return out
	}
	// modified returns the rows a modification addresses, as db holds
	// them: its WHERE run as a query over every column. SET's parameters
	// come first, so the WHERE's are renumbered from 0.
	modified := func(db *storage.Database, op workload.Op) string {
		s, ok := op.Template.Stmt.(*sqlparse.UpdateStmt)
		if !ok {
			return ""
		}
		set := sqlparse.NumParams(&sqlparse.UpdateStmt{Set: s.Set})
		where := slices.Clone(s.Where)
		for i := range where {
			for _, o := range []*sqlparse.Operand{&where[i].Left, &where[i].Right} {
				if o.Kind == sqlparse.OpParam {
					o.Param -= set
				}
			}
		}
		sel := &sqlparse.SelectStmt{Select: []sqlparse.SelectExpr{{Star: true}},
			From: []sqlparse.TableRef{{Table: s.Table}}, Where: where, Limit: -1}
		res, err := engine.ExecQuery(db, sel, op.Params[set:])
		if err != nil {
			t.Fatal(err)
		}
		return res.Fingerprint(false)
	}

	r.run(t, 12000, func(op workload.Op) {
		before, was := entries(), modified(shadow, op)
		if r.update(t, op) > 0 {
			_, isMod := op.Template.Stmt.(*sqlparse.UpdateStmt)
			noop := isMod && was == modified(r.master, op)
			live := make(map[*cache.Entry]bool, len(before))
			for _, e := range entries() {
				live[e] = true
			}
			for _, e := range before {
				if live[e] {
					continue
				}
				q := r.app.Query(e.Query.TemplateID)
				limit := q.Stmt.(*sqlparse.SelectStmt).Limit
				k := pair{op.Template.ID, q.ID, invalidate.ClassFor(r.exps[op.Template.ID], r.exps[q.ID]).String(),
					limit >= 0 && e.Result.Result.Len() >= limit}
				if drops[k] == nil {
					drops[k] = &tally{}
				}
				switch {
				case exec(shadow, q, e.Query.Params) != exec(r.master, q, e.Query.Params):
					drops[k].necessary++
				case noop:
					drops[k].noop++
				default:
					drops[k].unnecessary++
				}
			}
		}
		if _, err := engine.ExecUpdate(shadow, op.Template.Stmt, op.Params); err != nil {
			t.Fatal(err)
		}
	})

	for _, k := range []pair{{"U12", "Q1", "MVIS", false}, {"U13", "Q9", "MVIS", false}, {"U13", "Q10", "MVIS", false}, {"U8", "Q11", "MVIS", false}} {
		switch d := drops[k]; {
		case d == nil:
			t.Errorf("%s→%s never dropped an entry: the script is too short to say anything", k.update, k.query)
		case d.unnecessary != 0:
			t.Errorf("%s→%s: %d unnecessary drops (and %d necessary)", k.update, k.query, d.unnecessary, d.necessary)
		}
	}

	keys := make([]pair, 0, len(drops))
	for k := range drops {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if a, b := drops[keys[i]].unnecessary, drops[keys[j]].unnecessary; a != b {
			return a > b
		}
		return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j])
	})
	var out strings.Builder
	fmt.Fprintf(&out, "%-6s %-6s %-5s %-11s %9s %6s %11s\n", "update", "query", "class", "result", "necessary", "no-op", "unnecessary")
	for _, k := range keys {
		result := "complete"
		if k.full {
			result = "fills LIMIT"
		}
		d := drops[k]
		fmt.Fprintf(&out, "%-6s %-6s %-5s %-11s %9d %6d %11d\n", k.update, k.query, k.class, result, d.necessary, d.noop, d.unnecessary)
	}
	t.Logf("drops over 12000 pages, %d users, seed %d:\n%s", replayUsers, r.seed, out.String())
}
