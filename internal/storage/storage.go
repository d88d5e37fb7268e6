// Package storage is the in-memory relational store backing the home
// server of the DSSP reproduction. It provides tables with typed rows,
// primary-key and secondary hash indexes, and enforcement of the
// primary-key and foreign-key integrity constraints that the paper's §4.5
// analysis relies on.
//
// The paper's prototype used MySQL4 as the home-server DBMS; this package
// is the from-scratch substitute. Only behaviour visible to the SQL subset
// of §2.1 is implemented.
package storage

import (
	"fmt"
	"strconv"

	"dssp/internal/schema"
	"dssp/internal/sqlparse"
)

// Row is one tuple; values are parallel to the table's column list.
type Row []sqlparse.Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Key encodes values into a string usable as a hash-index key. The
// encoding is injective.
func Key(vals []sqlparse.Value) string {
	var buf [keyBufSize]byte
	return string(AppendKey(buf[:0], vals...))
}

// keyBufSize sizes the stack buffers index probes encode their key into:
// enough for the keys the applications build (a few integers or a short
// string); a longer key spills to the heap inside append.
const keyBufSize = 64

// AppendKey appends the Key encoding of vals to dst and returns the
// extended buffer. A map lookup m[string(AppendKey(buf[:0], v))] over a
// stack buffer allocates nothing, which is how every index probe runs.
func AppendKey(dst []byte, vals ...sqlparse.Value) []byte {
	for _, v := range vals {
		switch v.Kind {
		case sqlparse.KindNull:
			dst = append(dst, 'n')
		case sqlparse.KindInt:
			dst = append(dst, 'i')
			dst = strconv.AppendInt(dst, v.Int, 10)
		case sqlparse.KindFloat:
			dst = append(dst, 'f')
			dst = strconv.AppendFloat(dst, v.Float, 'g', -1, 64)
		case sqlparse.KindString:
			dst = append(dst, 's')
			dst = strconv.AppendInt(dst, int64(len(v.Str)), 10)
			dst = append(dst, ':')
			dst = append(dst, v.Str...)
		}
		dst = append(dst, '|')
	}
	return dst
}

// Table stores the rows of one relation. Deleted rows leave nil tombstones
// so row indexes remain stable within a run; iteration skips tombstones and
// preserves insertion order, which keeps query evaluation deterministic.
type Table struct {
	Meta *schema.Table

	rows []Row
	live int
	pk   map[string]int           // PK key -> row index
	sec  map[int]map[string][]int // column ordinal -> value key -> row indexes
}

func newTable(meta *schema.Table) *Table {
	return &Table{
		Meta: meta,
		pk:   make(map[string]int),
		sec:  make(map[int]map[string][]int),
	}
}

// Len returns the number of live rows.
func (t *Table) Len() int { return t.live }

// Scan calls f for every live row in insertion order. f must not mutate the
// row. Iteration stops early if f returns false.
func (t *Table) Scan(f func(Row) bool) {
	for _, r := range t.rows {
		if r == nil {
			continue
		}
		if !f(r) {
			return
		}
	}
}

func (t *Table) pkKey(r Row) string {
	var buf [keyBufSize]byte
	k := buf[:0]
	for _, ci := range t.Meta.PKIndexes() {
		k = AppendKey(k, r[ci])
	}
	return string(k)
}

// pkSlot returns the row slot holding the given primary-key values.
func (t *Table) pkSlot(keyVals []sqlparse.Value) (int, bool) {
	var buf [keyBufSize]byte
	i, ok := t.pk[string(AppendKey(buf[:0], keyVals...))]
	return i, ok
}

// LookupPK returns the row with the given primary-key values, or nil.
func (t *Table) LookupPK(keyVals []sqlparse.Value) Row {
	if i, ok := t.pkSlot(keyVals); ok {
		return t.rows[i]
	}
	return nil
}

// CreateIndex builds (or rebuilds) a secondary hash index on the named
// column. Equality lookups on indexed columns avoid full scans.
func (t *Table) CreateIndex(column string) error {
	ci := t.Meta.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("storage: table %q has no column %q", t.Meta.Name, column)
	}
	idx := make(map[string][]int)
	for i, r := range t.rows {
		if r == nil {
			continue
		}
		k := Key(r[ci : ci+1])
		idx[k] = append(idx[k], i)
	}
	t.sec[ci] = idx
	return nil
}

// HasIndex reports whether the column ordinal has a secondary index.
func (t *Table) HasIndex(colIdx int) bool {
	_, ok := t.sec[colIdx]
	return ok
}

// LookupIndex calls f for every live row whose indexed column equals v.
// It reports whether the column was indexed; if not, no rows are visited.
func (t *Table) LookupIndex(colIdx int, v sqlparse.Value, f func(Row) bool) bool {
	idx, ok := t.sec[colIdx]
	if !ok {
		return false
	}
	var buf [keyBufSize]byte
	for _, i := range idx[string(AppendKey(buf[:0], v))] {
		if t.rows[i] == nil {
			continue
		}
		if !f(t.rows[i]) {
			break
		}
	}
	return true
}

func (t *Table) indexAdd(i int, r Row) {
	for ci, idx := range t.sec {
		k := Key(r[ci : ci+1])
		idx[k] = append(idx[k], i)
	}
}

func (t *Table) indexRemove(i int, r Row) {
	for ci, idx := range t.sec {
		k := Key(r[ci : ci+1])
		rows := idx[k]
		for j, ri := range rows {
			if ri == i {
				rows[j] = rows[len(rows)-1]
				idx[k] = rows[:len(rows)-1]
				break
			}
		}
		if len(idx[k]) == 0 {
			delete(idx, k)
		}
	}
}

// Database is a set of tables conforming to a schema.
type Database struct {
	Schema *schema.Schema
	tables map[string]*Table
}

// NewDatabase creates an empty database for the schema.
func NewDatabase(s *schema.Schema) *Database {
	db := &Database{Schema: s, tables: make(map[string]*Table)}
	for _, t := range s.Tables() {
		db.tables[t.Name] = newTable(t)
	}
	return db
}

// Table returns the named table, or nil.
func (db *Database) Table(name string) *Table { return db.tables[name] }

// Insert adds a row (values in column order), enforcing type, primary-key
// uniqueness, and foreign-key existence constraints.
func (db *Database) Insert(table string, r Row) error {
	t := db.tables[table]
	if t == nil {
		return fmt.Errorf("storage: unknown table %q", table)
	}
	if len(r) != len(t.Meta.Columns) {
		return fmt.Errorf("storage: table %q expects %d values, got %d", table, len(t.Meta.Columns), len(r))
	}
	for i, v := range r {
		if !v.IsNull() && v.Kind != t.Meta.Columns[i].Type.Kind() {
			return fmt.Errorf("storage: %s.%s expects %s, got %s",
				table, t.Meta.Columns[i].Name, t.Meta.Columns[i].Type, v.Kind)
		}
	}
	key := t.pkKey(r)
	if _, dup := t.pk[key]; dup {
		return fmt.Errorf("storage: duplicate primary key %v in table %q", key, table)
	}
	for _, fk := range db.Schema.ForeignKeys {
		if fk.Table != table {
			continue
		}
		ci := t.Meta.ColumnIndex(fk.Column)
		if r[ci].IsNull() {
			continue
		}
		parent := db.tables[fk.RefTable]
		if parent.LookupPK([]sqlparse.Value{r[ci]}) == nil {
			return fmt.Errorf("storage: foreign key violation: %s has no row with %s=%s",
				fk.RefTable, fk.RefColumn, r[ci])
		}
	}
	r = r.Clone()
	i := len(t.rows)
	t.rows = append(t.rows, r)
	t.pk[key] = i
	t.live++
	t.indexAdd(i, r)
	return nil
}

// Delete removes every live row for which match returns true and returns
// the number of rows removed.
func (db *Database) Delete(table string, match func(Row) bool) (int, error) {
	t := db.tables[table]
	if t == nil {
		return 0, fmt.Errorf("storage: unknown table %q", table)
	}
	n := 0
	for i, r := range t.rows {
		if r == nil || !match(r) {
			continue
		}
		delete(t.pk, t.pkKey(r))
		t.indexRemove(i, r)
		t.rows[i] = nil
		t.live--
		n++
	}
	return n, nil
}

// UpdateByPK modifies the row with the given primary-key values by applying
// set (column ordinal -> new value). It returns the number of rows changed
// (0 or 1). Primary-key columns must not appear in set.
func (db *Database) UpdateByPK(table string, keyVals []sqlparse.Value, set map[int]sqlparse.Value) (int, error) {
	t := db.tables[table]
	if t == nil {
		return 0, fmt.Errorf("storage: unknown table %q", table)
	}
	i, ok := t.pkSlot(keyVals)
	if !ok {
		return 0, nil
	}
	r := t.rows[i]
	for ci, v := range set {
		if !v.IsNull() && v.Kind != t.Meta.Columns[ci].Type.Kind() {
			return 0, fmt.Errorf("storage: %s.%s expects %s, got %s",
				table, t.Meta.Columns[ci].Name, t.Meta.Columns[ci].Type, v.Kind)
		}
	}
	t.indexRemove(i, r)
	for ci, v := range set {
		r[ci] = v
	}
	t.indexAdd(i, r)
	return 1, nil
}

// Clone deep-copies the database. Used by tests that compare query results
// before and after an update against invalidation decisions.
func (db *Database) Clone() *Database {
	c := NewDatabase(db.Schema)
	for name, t := range db.tables {
		ct := c.tables[name]
		for _, r := range t.rows {
			if r == nil {
				continue
			}
			nr := r.Clone()
			i := len(ct.rows)
			ct.rows = append(ct.rows, nr)
			ct.pk[ct.pkKey(nr)] = i
			ct.live++
		}
		for ci := range t.sec {
			ct.CreateIndex(t.Meta.Columns[ci].Name) //nolint:errcheck // column known valid
		}
	}
	return c
}
