package schema

import (
	"fmt"

	"dssp/internal/sqlparse"
)

// ResolvedColumn is the resolution of one column reference: which FROM
// entry it binds to, the column ordinal within that relation, and the
// canonical attribute identity.
type ResolvedColumn struct {
	FromIndex int // index into the FROM list (0 for update statements)
	ColIndex  int
	Attr      Attr
}

// Resolver resolves column references of one statement against a schema.
type Resolver struct {
	schema *Schema
	from   []sqlparse.TableRef
	tables []*Table
}

// NewResolver builds a resolver for a FROM list (for update statements pass
// a single unaliased TableRef). It fails if any relation is unknown or two
// FROM entries share a name/alias.
func NewResolver(s *Schema, from []sqlparse.TableRef) (*Resolver, error) {
	r := &Resolver{schema: s, from: from}
	seen := make(map[string]bool, len(from))
	for _, f := range from {
		t := s.Table(f.Table)
		if t == nil {
			return nil, fmt.Errorf("schema: unknown table %q", f.Table)
		}
		name := f.Name()
		if seen[name] {
			return nil, fmt.Errorf("schema: duplicate table name or alias %q in FROM", name)
		}
		seen[name] = true
		r.tables = append(r.tables, t)
	}
	return r, nil
}

// Tables returns the resolved relations, parallel to the FROM list.
func (r *Resolver) Tables() []*Table { return r.tables }

// Resolve resolves a single column reference. Unqualified references must
// be unambiguous across the FROM list.
func (r *Resolver) Resolve(c sqlparse.ColumnRef) (ResolvedColumn, error) {
	if c.Table != "" {
		for i, f := range r.from {
			if f.Name() == c.Table {
				ci := r.tables[i].ColumnIndex(c.Column)
				if ci < 0 {
					return ResolvedColumn{}, fmt.Errorf("schema: table %q has no column %q", r.tables[i].Name, c.Column)
				}
				return ResolvedColumn{FromIndex: i, ColIndex: ci, Attr: Attr{r.tables[i].Name, c.Column}}, nil
			}
		}
		return ResolvedColumn{}, fmt.Errorf("schema: column %s references a table not in FROM", c)
	}
	found := -1
	for i, t := range r.tables {
		if t.ColumnIndex(c.Column) >= 0 {
			if found >= 0 {
				return ResolvedColumn{}, fmt.Errorf("schema: ambiguous column %q", c.Column)
			}
			found = i
		}
	}
	if found < 0 {
		return ResolvedColumn{}, fmt.Errorf("schema: unknown column %q", c.Column)
	}
	t := r.tables[found]
	return ResolvedColumn{FromIndex: found, ColIndex: t.ColumnIndex(c.Column), Attr: Attr{t.Name, c.Column}}, nil
}

// selectsAlias reports whether the SELECT list declares the given output
// alias.
func selectsAlias(st *sqlparse.SelectStmt, name string) bool {
	for _, e := range st.Select {
		if e.Alias == name {
			return true
		}
	}
	return false
}

// fromOf returns the FROM list implied by a statement.
func fromOf(stmt sqlparse.Statement) []sqlparse.TableRef {
	switch s := stmt.(type) {
	case *sqlparse.SelectStmt:
		return s.From
	case *sqlparse.InsertStmt:
		return []sqlparse.TableRef{{Table: s.Table}}
	case *sqlparse.DeleteStmt:
		return []sqlparse.TableRef{{Table: s.Table}}
	case *sqlparse.UpdateStmt:
		return []sqlparse.TableRef{{Table: s.Table}}
	default:
		return nil
	}
}

// Validate type-checks a statement against the schema: all relations and
// columns must exist, an INSERT or a SET assigns each column once and a
// value, inserted rows must bind every primary-key column
// (columns left unnamed become NULL, so the new row is still fully
// specified — the paper's insertion model), updates must modify only
// non-key attributes and select rows by equalities of a column with a
// value, which name every primary-key column and may name others, and
// deletions/queries may use arbitrary conjunctive arithmetic predicates.
func Validate(s *Schema, stmt sqlparse.Statement) error {
	r, err := NewResolver(s, fromOf(stmt))
	if err != nil {
		return err
	}
	checkWhere := func(where []sqlparse.Predicate) error {
		for _, p := range where {
			for _, o := range []sqlparse.Operand{p.Left, p.Right} {
				if o.Kind == sqlparse.OpColumn {
					if _, err := r.Resolve(o.Col); err != nil {
						return err
					}
				}
			}
			if p.Left.Kind != sqlparse.OpColumn && p.Right.Kind != sqlparse.OpColumn {
				return fmt.Errorf("schema: predicate %s compares no column", p)
			}
		}
		return nil
	}
	// assign checks a column an INSERT or a SET assigns: it exists, it is
	// assigned once, and what it is assigned is a value, not a column.
	assigned := make(map[string]bool)
	assign := func(t *Table, c string, v sqlparse.Operand) error {
		switch {
		case t.ColumnIndex(c) < 0:
			return fmt.Errorf("schema: table %q has no column %q", t.Name, c)
		case assigned[c]:
			return fmt.Errorf("schema: column %q assigned twice", c)
		case v.Kind == sqlparse.OpColumn:
			return fmt.Errorf("schema: column %q is assigned column %s, not a value", c, v)
		}
		assigned[c] = true
		return nil
	}
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		for _, e := range st.Select {
			if e.Star {
				continue
			}
			if _, err := r.Resolve(e.Col); err != nil {
				return err
			}
		}
		if err := checkWhere(st.Where); err != nil {
			return err
		}
		for _, c := range st.GroupBy {
			if _, err := r.Resolve(c); err != nil {
				return err
			}
		}
		for _, k := range st.OrderBy {
			if _, err := r.Resolve(k.Col); err != nil {
				// ORDER BY may also name an output column of the SELECT
				// list (e.g. an aggregate alias).
				if k.Col.Table == "" && selectsAlias(st, k.Col.Column) {
					continue
				}
				return err
			}
		}
		return nil
	case *sqlparse.InsertStmt:
		t := r.Tables()[0]
		if len(st.Columns) != len(st.Values) {
			return fmt.Errorf("schema: INSERT into %s names %d columns and gives %d values", t.Name, len(st.Columns), len(st.Values))
		}
		for i, c := range st.Columns {
			if err := assign(t, c, st.Values[i]); err != nil {
				return err
			}
		}
		for _, k := range t.PrimaryKey {
			if !assigned[k] {
				return fmt.Errorf("schema: INSERT into %s must set key column %q", t.Name, k)
			}
		}
		return nil
	case *sqlparse.DeleteStmt:
		return checkWhere(st.Where)
	case *sqlparse.UpdateStmt:
		t := r.Tables()[0]
		for _, a := range st.Set {
			if err := assign(t, a.Column, a.Value); err != nil {
				return err
			}
			if t.IsPrimaryKeyColumn(a.Column) {
				return fmt.Errorf("schema: modification of primary key column %s.%s is not permitted", t.Name, a.Column)
			}
		}
		if err := checkWhere(st.Where); err != nil {
			return err
		}
		// The update model requires an equality predicate over the full
		// primary key.
		keyed := make(map[string]bool)
		for _, p := range st.Where {
			if p.Op != sqlparse.OpEq {
				return fmt.Errorf("schema: modification predicate %s must be an equality", p)
			}
			col, other := p.Left, p.Right
			if col.Kind != sqlparse.OpColumn {
				col, other = p.Right, p.Left
			}
			if col.Kind != sqlparse.OpColumn || other.Kind == sqlparse.OpColumn {
				return fmt.Errorf("schema: modification predicate %s must compare a column with a value", p)
			}
			keyed[col.Col.Column] = true
		}
		for _, k := range t.PrimaryKey {
			if !keyed[k] {
				return fmt.Errorf("schema: modification of %s must select on primary key column %q", t.Name, k)
			}
		}
		return nil
	default:
		return fmt.Errorf("schema: unsupported statement type %T", stmt)
	}
}
