package experiments

import (
	"fmt"
	"strings"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/engine"
	"dssp/internal/invalidate"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
)

// Table2Result reproduces Table 2: the invalidations the DSSP must perform
// on seeing update U1 with parameter 5 on the simple-toystore application,
// under the four information-access scenarios.
type Table2Result struct {
	Rows []Table2Row
}

// Table2Row is one scenario.
type Table2Row struct {
	Templates, Parameters, Results bool // what the DSSP can access
	Invalidated                    []string
}

// Table2 builds the paper's scenario: a database where toy 5 exists and a
// set of cached query instances, then asks each strategy class what it
// would invalidate for U1(5).
func Table2() (*Table2Result, error) {
	app := apps.SimpleToystore()
	db := storage.NewDatabase(app.Schema)
	seed := []struct {
		id   int64
		name string
		qty  int64
	}{{1, "bear", 10}, {5, "kite", 25}, {7, "bear", 3}}
	for _, r := range seed {
		if err := db.Insert("toys", storage.Row{
			sqlparse.IntVal(r.id), sqlparse.StringVal(r.name), sqlparse.IntVal(r.qty),
		}); err != nil {
			return nil, err
		}
	}
	if err := db.Insert("customers", storage.Row{sqlparse.IntVal(1), sqlparse.StringVal("alice")}); err != nil {
		return nil, err
	}

	// Cached instances: all of Q1, two instances of Q2 (toy_id 5 and 7),
	// and one of Q3.
	type inst struct {
		label  string
		tmpl   string
		params []sqlparse.Value
	}
	instances := []inst{
		{"Q1('bear')", "Q1", []sqlparse.Value{sqlparse.StringVal("bear")}},
		{"Q1('kite')", "Q1", []sqlparse.Value{sqlparse.StringVal("kite")}},
		{"Q2(5)", "Q2", []sqlparse.Value{sqlparse.IntVal(5)}},
		{"Q2(7)", "Q2", []sqlparse.Value{sqlparse.IntVal(7)}},
		{"Q3(1)", "Q3", []sqlparse.Value{sqlparse.IntVal(1)}},
	}
	iv := invalidate.New(app, core.Analyze(app, core.DefaultOptions()))
	u := iv.Prepare(invalidate.UpdateInstance{Template: app.Update("U1"), Params: []sqlparse.Value{sqlparse.IntVal(5)}})

	res := &Table2Result{}
	scenarios := []struct {
		t, p, r bool
		class   invalidate.Class
	}{
		{false, false, false, invalidate.Blind},
		{true, false, false, invalidate.TemplateInspection},
		{true, true, false, invalidate.StatementInspection},
		{true, true, true, invalidate.ViewInspection},
	}
	for _, sc := range scenarios {
		row := Table2Row{Templates: sc.t, Parameters: sc.p, Results: sc.r}
		for _, in := range instances {
			q := app.Query(in.tmpl)
			result, err := engine.ExecQuery(db, q.Stmt.(*sqlparse.SelectStmt), in.params)
			if err != nil {
				return nil, err
			}
			view := invalidate.CachedView{Template: q, Params: in.params, Result: result}
			if iv.DecidePrepared(sc.class, u, view) == invalidate.Invalidate {
				row.Invalidated = append(row.Invalidated, in.label)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format renders the scenario table.
func (r *Table2Result) Format() string {
	var b strings.Builder
	b.WriteString("Table 2: invalidations for U1(5) on simple-toystore, by accessible information\n\n")
	yn := func(v bool) string {
		if v {
			return "Yes"
		}
		return "No"
	}
	rows := [][]string{{"Templates", "Parameters", "Results", "Invalidated"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			yn(row.Templates), yn(row.Parameters), yn(row.Results),
			strings.Join(row.Invalidated, ", "),
		})
	}
	table(&b, rows)
	return b.String()
}

// Figure6Result prints the normalized IPM (Figure 6) of one template pair.
type Figure6Result struct {
	UpdateID, QueryID string
	Pair              core.PairAnalysis
	Cells             map[[2]template.Exposure]core.Prob
}

// Figure6 evaluates the IPM cell values for a pair of the toystore app.
func Figure6(updateID, queryID string) (*Figure6Result, error) {
	app := apps.Toystore()
	a := core.Analyze(app, core.DefaultOptions())
	pa, ok := a.Pair(updateID, queryID)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown pair %s/%s", updateID, queryID)
	}
	res := &Figure6Result{UpdateID: updateID, QueryID: queryID, Pair: pa,
		Cells: make(map[[2]template.Exposure]core.Prob)}
	for _, eu := range []template.Exposure{template.ExpBlind, template.ExpTemplate, template.ExpStmt} {
		for _, eq := range []template.Exposure{template.ExpBlind, template.ExpTemplate, template.ExpStmt, template.ExpView} {
			res.Cells[[2]template.Exposure{eu, eq}] = core.PairProb(pa, eu, eq)
		}
	}
	return res, nil
}

// Format renders the matrix with update exposure as rows.
func (r *Figure6Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: invalidation probability matrix IPM(%s, %s) — %s\n\n", r.UpdateID, r.QueryID, r.Pair)
	rows := [][]string{{"update \\ query", "blind", "template", "stmt", "view"}}
	for _, eu := range []template.Exposure{template.ExpBlind, template.ExpTemplate, template.ExpStmt} {
		row := []string{eu.String()}
		for _, eq := range []template.Exposure{template.ExpBlind, template.ExpTemplate, template.ExpStmt, template.ExpView} {
			row = append(row, r.Cells[[2]template.Exposure{eu, eq}].String())
		}
		rows = append(rows, row)
	}
	table(&b, rows)
	return b.String()
}
