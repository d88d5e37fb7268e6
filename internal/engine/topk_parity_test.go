package engine_test

import (
	"math/rand"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/engine"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/workload"
)

// The bounded top-k selection must be observably identical to the full
// sort it replaced: for every ORDER BY … LIMIT template of the three
// benchmark applications, executing the template must yield exactly the
// rows of an unlimited execution truncated to the limit — including how
// duplicate order keys resolve, which the canonical full-content
// tie-break pins down. Parameters come from real session replays, so the
// queries run against the value distributions the benchmarks actually
// produce (duplicate dates, shared categories, and so on).
func TestTopKParityWithFullSort(t *testing.T) {
	for _, b := range []workload.Benchmark{apps.NewAuction(), apps.NewBBoard(), apps.NewBookstore()} {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			app := b.App()
			rng := rand.New(rand.NewSource(1))
			db := storage.NewDatabase(app.Schema)
			if err := b.Populate(db, rng); err != nil {
				t.Fatal(err)
			}

			topk := map[string]bool{}
			for _, q := range app.Queries {
				if sel, ok := q.Stmt.(*sqlparse.SelectStmt); ok && sel.Limit >= 0 && len(sel.OrderBy) > 0 {
					topk[q.ID] = true
				}
			}
			if len(topk) == 0 {
				t.Fatalf("%s has no ORDER BY … LIMIT templates", b.Name())
			}

			exercised := map[string]int{}
			sess := b.NewSession(rng)
			for page := 0; page < 400; page++ {
				for _, op := range sess.NextPage() {
					if !topk[op.Template.ID] {
						continue
					}
					sel := op.Template.Stmt.(*sqlparse.SelectStmt)
					got, err := engine.ExecQuery(db, sel, op.Params)
					if err != nil {
						t.Fatalf("%s%v: %v", op.Template.ID, op.Params, err)
					}
					unlimited := *sel
					unlimited.Limit = -1
					want, err := engine.ExecQuery(db, &unlimited, op.Params)
					if err != nil {
						t.Fatalf("%s%v unlimited: %v", op.Template.ID, op.Params, err)
					}
					if want.Len() > sel.Limit {
						want.Vals = want.Vals[:sel.Limit*len(want.Columns)]
					}
					if got.Len() > sel.Limit {
						t.Fatalf("%s%v: %d rows exceed LIMIT %d", op.Template.ID, op.Params, got.Len(), sel.Limit)
					}
					if got.Fingerprint(true) != want.Fingerprint(true) {
						t.Fatalf("%s%v: top-k selection diverges from full sort + truncate\n got: %v\nwant: %v",
							op.Template.ID, op.Params, got.Vals, want.Vals)
					}
					exercised[op.Template.ID]++
				}
			}
			for id := range topk {
				if exercised[id] == 0 {
					t.Errorf("template %s never exercised by 400 session pages", id)
				}
			}
		})
	}
}
