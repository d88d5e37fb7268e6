package engine

import (
	"fmt"

	"dssp/internal/sqlparse"
	"dssp/internal/storage"
)

// ExecUpdate applies an insertion, deletion, or modification with the
// given parameter values and returns the number of rows affected.
func ExecUpdate(db *storage.Database, stmt sqlparse.Statement, params []sqlparse.Value) (int, error) {
	switch s := stmt.(type) {
	case *sqlparse.InsertStmt:
		return execInsert(db, s, params)
	case *sqlparse.DeleteStmt:
		return execDelete(db, s, params)
	case *sqlparse.UpdateStmt:
		return execModify(db, s, params)
	default:
		return 0, fmt.Errorf("engine: %T is not an update statement", stmt)
	}
}

func bindOperand(o sqlparse.Operand, params []sqlparse.Value) (sqlparse.Value, error) {
	switch o.Kind {
	case sqlparse.OpConst:
		return o.Const, nil
	case sqlparse.OpParam:
		if o.Param >= len(params) {
			return sqlparse.Value{}, fmt.Errorf("engine: statement requires parameter %d but only %d bound", o.Param, len(params))
		}
		return params[o.Param], nil
	default:
		return sqlparse.Value{}, fmt.Errorf("engine: operand %s is not a value", o)
	}
}

// InsertedRow materializes the full row (in column order) that an insertion
// statement adds, binding parameters. Columns the statement does not name
// are NULL — matching SQL semantics for tables without defaults — except
// primary-key columns, which every row must bind. The DSSP's
// statement-inspection strategy reasons over this row, so its NULL
// semantics (a NULL never satisfies a predicate, never joins, and never
// enters an aggregate) must agree with the engine's; see RowMatches.
func InsertedRow(db *storage.Database, s *sqlparse.InsertStmt, params []sqlparse.Value) (storage.Row, error) {
	t := db.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("engine: unknown table %q", s.Table)
	}
	row := make(storage.Row, len(t.Meta.Columns))
	seen := make([]bool, len(row))
	for i, c := range s.Columns {
		ci := t.Meta.ColumnIndex(c)
		if ci < 0 {
			return nil, fmt.Errorf("engine: table %q has no column %q", s.Table, c)
		}
		v, err := bindOperand(s.Values[i], params)
		if err != nil {
			return nil, err
		}
		row[ci] = v
		seen[ci] = true
	}
	for ci, ok := range seen {
		if !ok {
			name := t.Meta.Columns[ci].Name
			if t.Meta.IsPrimaryKeyColumn(name) {
				return nil, fmt.Errorf("engine: INSERT into %q does not set key column %q", s.Table, name)
			}
			// Unnamed non-key column: the zero Value is NULL.
		}
	}
	return row, nil
}

func execInsert(db *storage.Database, s *sqlparse.InsertStmt, params []sqlparse.Value) (int, error) {
	row, err := InsertedRow(db, s, params)
	if err != nil {
		return 0, err
	}
	if err := db.Insert(s.Table, row); err != nil {
		return 0, err
	}
	return 1, nil
}

// RowMatches evaluates a conjunctive single-table predicate list against a
// row of the named table. Both the deletion path and the view-inspection
// invalidation strategy use it.
func RowMatches(db *storage.Database, table string, where []sqlparse.Predicate, params []sqlparse.Value, row storage.Row) (bool, error) {
	t := db.Table(table)
	if t == nil {
		return false, fmt.Errorf("engine: unknown table %q", table)
	}
	for _, p := range where {
		l, err := sideValue(t, p.Left, params, row)
		if err != nil {
			return false, err
		}
		r, err := sideValue(t, p.Right, params, row)
		if err != nil {
			return false, err
		}
		if l.IsNull() || r.IsNull() {
			return false, nil
		}
		if !p.Op.Holds(l.Compare(r)) {
			return false, nil
		}
	}
	return true, nil
}

func sideValue(t *storage.Table, o sqlparse.Operand, params []sqlparse.Value, row storage.Row) (sqlparse.Value, error) {
	if o.Kind == sqlparse.OpColumn {
		ci := t.Meta.ColumnIndex(o.Col.Column)
		if ci < 0 {
			return sqlparse.Value{}, fmt.Errorf("engine: table %q has no column %q", t.Meta.Name, o.Col.Column)
		}
		return row[ci], nil
	}
	return bindOperand(o, params)
}

func execDelete(db *storage.Database, s *sqlparse.DeleteStmt, params []sqlparse.Value) (int, error) {
	var evalErr error
	n, err := db.Delete(s.Table, func(row storage.Row) bool {
		if evalErr != nil {
			return false
		}
		ok, err := RowMatches(db, s.Table, s.Where, params, row)
		if err != nil {
			evalErr = err
			return false
		}
		return ok
	})
	if evalErr != nil {
		return 0, evalErr
	}
	return n, err
}

// ModificationKey appends to dst the primary-key values selected by a
// modification statement, in primary-key order.
func ModificationKey(dst []sqlparse.Value, db *storage.Database, s *sqlparse.UpdateStmt, params []sqlparse.Value) ([]sqlparse.Value, error) {
	t := db.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("engine: unknown table %q", s.Table)
	}
	byCol := make(map[string]sqlparse.Value, len(s.Where))
	for _, p := range s.Where {
		col, other := p.Left, p.Right
		if col.Kind != sqlparse.OpColumn {
			col, other = p.Right, p.Left
		}
		v, err := bindOperand(other, params)
		if err != nil {
			return nil, err
		}
		byCol[col.Col.Column] = v
	}
	for _, k := range t.Meta.PrimaryKey {
		v, ok := byCol[k]
		if !ok {
			return nil, fmt.Errorf("engine: modification of %q does not bind key column %q", s.Table, k)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

func execModify(db *storage.Database, s *sqlparse.UpdateStmt, params []sqlparse.Value) (int, error) {
	t := db.Table(s.Table)
	if t == nil {
		return 0, fmt.Errorf("engine: unknown table %q", s.Table)
	}
	// The applications' keys have one or two columns; a wider one
	// spills to the heap inside append.
	var key [4]sqlparse.Value
	keyVals, err := ModificationKey(key[:0], db, s, params)
	if err != nil {
		return 0, err
	}
	set := make(map[int]sqlparse.Value, len(s.Set))
	for _, a := range s.Set {
		ci := t.Meta.ColumnIndex(a.Column)
		if ci < 0 {
			return 0, fmt.Errorf("engine: table %q has no column %q", s.Table, a.Column)
		}
		v, err := bindOperand(a.Value, params)
		if err != nil {
			return 0, err
		}
		set[ci] = v
	}
	return db.UpdateByPK(s.Table, keyVals, set)
}
