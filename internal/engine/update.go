package engine

import (
	"fmt"

	"dssp/internal/schema"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
)

// Update is an insertion, deletion or modification compiled against a
// schema, as Compile compiles a query. The rows a deletion or modification
// touches are those its one-level plan visits, by the plan's access path,
// with every WHERE predicate holding under the plan's evaluator. An Update
// is immutable after CompileUpdate and safe to Run from any goroutine.
type Update struct {
	// sel is the one-level plan over the table, which selects the rows of
	// a deletion or a modification.
	sel   Plan
	table string
	kind  updateKind

	row []operand // insertions: the new row's values, in column order

	setCols []int     // modifications: the columns SET assigns,
	setVals []operand // and their values

	stored []int // the parameters whose values Run stores (StoredParams)
}

type updateKind uint8

const (
	kindInsert updateKind = iota
	kindDelete
	kindModify
)

// CompileUpdate resolves an insertion, deletion or modification against a
// schema. It refuses what schema.Validate refuses, so a statement runs
// only if it could be a template: every name resolves, an INSERT or a SET
// assigns each column once and a value, an INSERT sets the whole primary
// key, and a modification names it by equalities and sets none of it.
func CompileUpdate(s *schema.Schema, stmt sqlparse.Statement) (*Update, error) {
	if err := schema.Validate(s, stmt); err != nil {
		return nil, err
	}
	u := &Update{sel: Plan{NumParams: sqlparse.NumParams(stmt), schema: s, limit: -1, collect: true}}
	var where []sqlparse.Predicate
	var cols []string
	var vals []sqlparse.Operand
	switch st := stmt.(type) {
	case *sqlparse.InsertStmt:
		// A column the statement does not name keeps the zero operand,
		// whose bind is NULL, as in SQL for a table without defaults.
		u.kind, u.table, cols, vals = kindInsert, st.Table, st.Columns, st.Values
		u.row = make([]operand, len(s.Table(st.Table).Columns))
	case *sqlparse.DeleteStmt:
		u.kind, u.table, where = kindDelete, st.Table, st.Where
	case *sqlparse.UpdateStmt:
		u.kind, u.table, where = kindModify, st.Table, st.Where
		for _, a := range st.Set {
			cols, vals = append(cols, a.Column), append(vals, a.Value)
		}
	default:
		return nil, fmt.Errorf("engine: %T is not an update statement", stmt)
	}
	res, err := schema.NewResolver(s, []sqlparse.TableRef{{Table: u.table}})
	if err != nil {
		return nil, err
	}
	t := res.Tables()[0]
	u.sel.levels = []level{{table: u.table}}
	for i, c := range cols {
		v, err := u.sel.resolveOperand(res, vals[i])
		if err != nil {
			return nil, err
		}
		if ci := t.ColumnIndex(c); u.kind == kindInsert {
			u.row[ci] = v
		} else {
			u.setCols, u.setVals = append(u.setCols, ci), append(u.setVals, v)
		}
		if v.kind == sqlparse.OpParam {
			u.stored = append(u.stored, v.param)
		}
	}
	for _, wp := range where {
		if err := u.sel.addPredicate(res, wp); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// Run applies the statement to db, of the schema it was compiled against,
// with exactly its number of parameters, and returns the number of rows
// affected. The caller excludes every other user of db (the home server
// holds its write lock).
func (u *Update) Run(db *storage.Database, params []sqlparse.Value) (int, error) {
	x := execPool.Get().(*exec)
	defer x.release()
	if err := x.start(&u.sel, db, params); err != nil {
		return 0, err
	}
	if u.kind == kindInsert {
		x.vals, _ = u.InsertedRow(x.vals, params) // start checked the parameters
		if err := db.Insert(u.table, x.vals); err != nil {
			return 0, err
		}
		return 1, nil
	}
	// The rows are collected before any changes: a modification re-keys
	// the index the access path may be walking.
	x.join(0)
	if u.kind == kindDelete {
		return db.Delete(u.table, x.hits)
	}
	for _, o := range u.setVals {
		x.vals = append(x.vals, o.bind(params))
	}
	return db.Update(u.table, x.hits, u.setCols, x.vals)
}

// NumParams is the number of parameters the statement binds.
func (u *Update) NumParams() int { return u.sel.NumParams }

// StoredParams returns the positions of the parameters whose values Run
// stores in the database — an insertion's values, a modification's SET
// values — and not those only its WHERE clause compares. A caller that
// lends Run its parameters copies the strings at these positions, and
// only these, since storage keeps them. Read it, never write it.
func (u *Update) StoredParams() []int { return u.stored }

// InsertedRow appends to dst the row an insertion adds, in column order,
// with params bound: the row Run stores, and the row statement inspection
// reasons over, so the two cannot disagree on which columns it leaves NULL.
func (u *Update) InsertedRow(dst, params []sqlparse.Value) ([]sqlparse.Value, error) {
	if len(params) != u.sel.NumParams {
		return dst, fmt.Errorf("engine: statement requires parameter count %d but %d bound", u.sel.NumParams, len(params))
	}
	for _, o := range u.row {
		dst = append(dst, o.bind(params))
	}
	return dst, nil
}

// ExecUpdate is CompileUpdate followed by Run, for a statement run once;
// the home server compiles each update template once and keeps it.
func ExecUpdate(db *storage.Database, stmt sqlparse.Statement, params []sqlparse.Value) (int, error) {
	u, err := CompileUpdate(db.Schema, stmt)
	if err != nil {
		return 0, err
	}
	return u.Run(db, params)
}
