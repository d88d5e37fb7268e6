package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"dssp/internal/core"
	"dssp/internal/engine"
	"dssp/internal/invalidate"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/workload"
)

// Figure4Result checks the Figure 4 relationships empirically: every
// correct blind strategy is a correct template-inspection strategy, and so
// on — equivalently, the invalidation decisions of the four minimal
// strategies are nested, and each refinement strictly helps on real
// workloads (no minimal strategy of a class is minimal for the richer
// class).
type Figure4Result struct {
	App          string
	Decisions    int
	Invalidated  map[string]int
	Violations   int // pairs where a richer class invalidated but a poorer one did not
	StrictBlind  int // decisions where MTIS avoided an MBS invalidation
	StrictTIS    int // decisions where MSIS avoided an MTIS invalidation
	StrictSIS    int // decisions where MVIS avoided an MSIS invalidation
	MissedGround int // ground-truth changes a strategy failed to invalidate (must be 0)

	// PartialInserts counts the insertions the audit rewrote to name only
	// a subset of columns, leaving NULLs in the stored row. These exercise
	// the NULL semantics the statement- and view-inspection strategies
	// reason over (a NULL satisfies no predicate, joins nothing, and
	// enters no aggregate) against ground-truth re-execution.
	PartialInserts int
}

// partialInsert is a derived update template that names only a subset of
// an insertion's columns (every primary-key column plus every other
// remaining one); unnamed columns become NULL.
type partialInsert struct {
	tmpl *template.Template
	keep []int // kept positions in the original column list
}

// params projects the original insert's parameter vector onto the
// variant's parameters (the kept columns' `?`s, in order).
func (pv *partialInsert) params(full *sqlparse.InsertStmt, orig []sqlparse.Value) []sqlparse.Value {
	out := make([]sqlparse.Value, 0, len(pv.keep))
	for _, i := range pv.keep {
		if full.Values[i].Kind == sqlparse.OpParam {
			out = append(out, orig[full.Values[i].Param])
		}
	}
	return out
}

// partialInsertVariants derives a partial-column variant for every insert
// template that has at least one droppable (non-key) column.
func partialInsertVariants(app *template.App) map[string]*partialInsert {
	out := make(map[string]*partialInsert)
	for _, u := range app.Updates {
		s, ok := u.Stmt.(*sqlparse.InsertStmt)
		if !ok {
			continue
		}
		meta := app.Schema.Table(s.Table)
		if meta == nil {
			continue
		}
		var keep []int
		nonKey, dropped := 0, 0
		for i, c := range s.Columns {
			if meta.IsPrimaryKeyColumn(c) {
				keep = append(keep, i)
				continue
			}
			if nonKey++; nonKey%2 == 1 {
				keep = append(keep, i)
			} else {
				dropped++
			}
		}
		if dropped == 0 {
			continue
		}
		cols := make([]string, 0, len(keep))
		vals := make([]string, 0, len(keep))
		for _, i := range keep {
			cols = append(cols, s.Columns[i])
			vals = append(vals, s.Values[i].String())
		}
		sql := fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)",
			s.Table, strings.Join(cols, ", "), strings.Join(vals, ", "))
		t, err := template.New(u.ID+"#partial", app.Schema, sql)
		if err != nil {
			continue
		}
		out[u.ID] = &partialInsert{tmpl: t, keep: keep}
	}
	return out
}

// Figure4 samples random update/cached-query encounters from a benchmark's
// own workload generator and tabulates strategy decisions against
// ground-truth re-execution.
func Figure4(b workload.Benchmark, encounters int, seed int64) (*Figure4Result, error) {
	rng := rand.New(rand.NewSource(seed))
	app := b.App()
	db := storage.NewDatabase(app.Schema)
	if err := b.Populate(db, rng); err != nil {
		return nil, err
	}
	iv := invalidate.New(app, core.Analyze(app, core.DefaultOptions()))
	session := b.NewSession(rng)
	partials := partialInsertVariants(app)

	res := &Figure4Result{App: b.Name(), Invalidated: map[string]int{}}
	classes := []invalidate.Class{
		invalidate.Blind, invalidate.TemplateInspection,
		invalidate.StatementInspection, invalidate.ViewInspection,
	}

	// Keep a rolling set of cached query instances produced by the
	// workload itself.
	var cached []invalidate.CachedView
	var ordered []bool
	for res.Decisions < encounters {
		for _, op := range session.NextPage() {
			if op.Template.Kind == template.KQuery {
				q := op.Template.Stmt.(*sqlparse.SelectStmt)
				r, err := engine.ExecQuery(db, q, op.Params)
				if err != nil {
					return nil, err
				}
				if r.Len() == 0 || len(cached) > 64 {
					continue
				}
				cached = append(cached, invalidate.CachedView{Template: op.Template, Params: op.Params, Result: r})
				ordered = append(ordered, len(q.OrderBy) > 0)
				continue
			}
			// An update: evaluate all strategies against every cached view,
			// then apply it for real (refreshing stale entries). Every other
			// insertion is rewritten to its partial-column variant so the
			// audit covers rows with NULLs.
			if pv := partials[op.Template.ID]; pv != nil && res.Decisions%2 == 1 {
				op.Params = pv.params(op.Template.Stmt.(*sqlparse.InsertStmt), op.Params)
				op.Template = pv.tmpl
				res.PartialInserts++
			}
			db2 := db.Clone()
			if _, err := engine.ExecUpdate(db2, op.Template.Stmt, op.Params); err != nil {
				return nil, err
			}
			pu := iv.Prepare(invalidate.UpdateInstance{Template: op.Template, Params: op.Params})
			keep := cached[:0]
			keepOrd := ordered[:0]
			for i, view := range cached {
				after, err := engine.ExecQuery(db2, view.Template.Stmt.(*sqlparse.SelectStmt), view.Params)
				if err != nil {
					return nil, err
				}
				changed := view.Result.Fingerprint(ordered[i]) != after.Fingerprint(ordered[i])
				var prev invalidate.Decision = invalidate.Invalidate
				stale := false
				decisions := make([]invalidate.Decision, len(classes))
				for ci, class := range classes {
					d := iv.DecidePrepared(class, pu, view)
					decisions[ci] = d
					if d == invalidate.Invalidate {
						res.Invalidated[class.String()]++
					}
					if d == invalidate.Invalidate && prev == invalidate.DNI {
						res.Violations++
					}
					if changed && d == invalidate.DNI {
						res.MissedGround++
					}
					prev = d
					if class == invalidate.ViewInspection && d == invalidate.Invalidate {
						stale = true
					}
				}
				if decisions[0] == invalidate.Invalidate && decisions[1] == invalidate.DNI {
					res.StrictBlind++
				}
				if decisions[1] == invalidate.Invalidate && decisions[2] == invalidate.DNI {
					res.StrictTIS++
				}
				if decisions[2] == invalidate.Invalidate && decisions[3] == invalidate.DNI {
					res.StrictSIS++
				}
				res.Decisions++
				if !stale && !changed {
					keep = append(keep, view)
					keepOrd = append(keepOrd, ordered[i])
				}
			}
			cached = keep
			ordered = keepOrd
			db = db2
		}
	}
	return res, nil
}

// Format renders the containment summary.
func (r *Figure4Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: strategy class containment on the %s workload (%d decisions)\n\n", r.App, r.Decisions)
	rows := [][]string{{"Class", "Invalidations"}}
	for _, c := range []string{"MBS", "MTIS", "MSIS", "MVIS"} {
		rows = append(rows, []string{c, fmt.Sprint(r.Invalidated[c])})
	}
	table(&b, rows)
	fmt.Fprintf(&b, "\ncontainment violations (must be 0): %d\n", r.Violations)
	fmt.Fprintf(&b, "missed ground-truth invalidations (must be 0): %d\n", r.MissedGround)
	fmt.Fprintf(&b, "partial-column insertions audited: %d\n", r.PartialInserts)
	fmt.Fprintf(&b, "strict refinements: MTIS<MBS on %d, MSIS<MTIS on %d, MVIS<MSIS on %d decisions\n",
		r.StrictBlind, r.StrictTIS, r.StrictSIS)
	return b.String()
}
