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
	"slices"

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

// Key encodes values into a string usable as a hash-index key
// (sqlparse.AppendKey's form). The encoding is injective up to
// Value.Compare: two lists have one key exactly when their values compare
// equal pairwise.
func Key(vals []sqlparse.Value) string {
	var buf [keyBufSize]byte
	return string(sqlparse.AppendKey(buf[:0], vals...))
}

// keyBufSize sizes the stack buffers index probes encode their key into:
// enough for the keys the applications build (a few integers or a short
// string); a longer key spills to the heap inside append.
const keyBufSize = 64

// Table stores the rows of one relation. Deleted rows leave nil tombstones
// so row indexes remain stable within a run; iteration skips tombstones and
// preserves insertion order, which keeps query evaluation deterministic.
type Table struct {
	Meta *schema.Table

	rows []Row
	live int
	pk   map[string]int              // PK key -> row index
	sec  map[int]map[string]postings // column ordinal -> value key -> row indexes

	slots []int // Delete's and Update's scratch: the slots they change
}

func newTable(meta *schema.Table) *Table {
	return &Table{
		Meta: meta,
		pk:   make(map[string]int),
		sec:  make(map[int]map[string]postings),
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

// appendPK appends the primary-key encoding of row r to dst.
func (t *Table) appendPK(dst []byte, r Row) []byte {
	for _, ci := range t.Meta.PKIndexes() {
		dst = sqlparse.AppendKey(dst, r[ci])
	}
	return dst
}

// LookupPK returns the row with the given primary-key values, or nil.
func (t *Table) LookupPK(keyVals []sqlparse.Value) Row {
	var buf [keyBufSize]byte
	if i, ok := t.pk[string(sqlparse.AppendKey(buf[:0], keyVals...))]; ok {
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
	idx := make(map[string]postings)
	for i, r := range t.rows {
		if r != nil {
			indexInsert(idx, i, r[ci])
		}
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
	for _, i := range idx[string(sqlparse.AppendKey(buf[:0], v))].rows {
		if t.rows[i] == nil {
			continue
		}
		if !f(t.rows[i]) {
			break
		}
	}
	return true
}

// postings is one value's row slots in a secondary index, beside the key
// the index holds them under: a change to the list is stored back under
// that string, so only a key the index gains allocates one. (An assignment
// idx[string(k)] = rows allocates its key whether or not the map has it.)
type postings struct {
	key  string
	rows []int
}

// indexInsert adds row slot i under v in one secondary index.
func indexInsert(idx map[string]postings, i int, v sqlparse.Value) {
	var buf [keyBufSize]byte
	k := sqlparse.AppendKey(buf[:0], v)
	p, ok := idx[string(k)]
	if !ok {
		p.key = string(k)
	}
	p.rows = append(p.rows, i)
	idx[p.key] = p
}

// indexMoveToEnd moves row slot i to the end of v's list in one
// secondary index, in place: an indexDelete and indexInsert of the same
// value leave the list so, but re-key it.
func indexMoveToEnd(idx map[string]postings, i int, v sqlparse.Value) {
	var buf [keyBufSize]byte
	rows := idx[string(sqlparse.AppendKey(buf[:0], v))].rows
	for j, ri := range rows {
		if ri == i {
			last := len(rows) - 1
			rows[j], rows[last] = rows[last], rows[j]
			return
		}
	}
}

// indexDelete takes row slot i out from under v in one secondary index,
// probing with a key encoded on the stack.
func indexDelete(idx map[string]postings, i int, v sqlparse.Value) {
	var buf [keyBufSize]byte
	p, ok := idx[string(sqlparse.AppendKey(buf[:0], v))]
	if !ok {
		return
	}
	for j, ri := range p.rows {
		if ri == i {
			p.rows[j] = p.rows[len(p.rows)-1]
			p.rows = p.rows[:len(p.rows)-1]
			break
		}
	}
	if len(p.rows) == 0 {
		delete(idx, p.key)
	} else {
		idx[p.key] = p
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
	var buf [keyBufSize]byte
	key := string(t.appendPK(buf[:0], r))
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
	for ci, idx := range t.sec {
		indexInsert(idx, i, r[ci])
	}
	return nil
}

// Delete removes rows — live rows of the table, as its scans and probes
// yield them — and returns the number removed.
func (db *Database) Delete(table string, rows []Row) (int, error) {
	t := db.tables[table]
	if t == nil {
		return 0, fmt.Errorf("storage: unknown table %q", table)
	}
	slots := t.slotsOf(rows)
	for _, i := range slots {
		r := t.rows[i]
		var buf [keyBufSize]byte
		delete(t.pk, string(t.appendPK(buf[:0], r)))
		for ci, idx := range t.sec {
			indexDelete(idx, i, r[ci])
		}
		t.rows[i] = nil
		t.live--
	}
	return len(slots), nil
}

// Update assigns vals[k] to column cols[k] of each of rows — live rows of
// the table, as for Delete — and returns the number of rows changed. A
// column appears in cols at most once and is not a primary-key column; a
// value of the wrong type changes no row.
func (db *Database) Update(table string, rows []Row, cols []int, vals []sqlparse.Value) (int, error) {
	t := db.tables[table]
	if t == nil {
		return 0, fmt.Errorf("storage: unknown table %q", table)
	}
	if len(rows) == 0 {
		return 0, nil
	}
	for k, ci := range cols {
		if v := vals[k]; !v.IsNull() && v.Kind != t.Meta.Columns[ci].Type.Kind() {
			return 0, fmt.Errorf("storage: %s.%s expects %s, got %s",
				table, t.Meta.Columns[ci].Name, t.Meta.Columns[ci].Type, v.Kind)
		}
	}
	slots := t.slotsOf(rows)
	for _, i := range slots {
		r := t.rows[i]
		// Only the indexes on an assigned column are re-keyed. In the
		// others the row moves to the end of its list, where taking it out
		// and putting it back would leave it: the order an index yields
		// rows in is the order of every result read through it.
		for ci, idx := range t.sec {
			if k := slices.Index(cols, ci); k >= 0 {
				indexDelete(idx, i, r[ci])
				indexInsert(idx, i, vals[k])
			} else {
				indexMoveToEnd(idx, i, r[ci])
			}
		}
		for k, ci := range cols {
			r[ci] = vals[k]
		}
	}
	return len(slots), nil
}

// slotsOf returns the slots of rows, ascending and each once, in the
// table's scratch: Delete and Update change rows in the order a scan meets
// them, whatever order they came in, since the order of changes to an
// index is the order its probes later yield rows in.
func (t *Table) slotsOf(rows []Row) []int {
	t.slots = t.slots[:0]
	for _, r := range rows {
		var buf [keyBufSize]byte
		if i, ok := t.pk[string(t.appendPK(buf[:0], r))]; ok {
			t.slots = append(t.slots, i)
		}
	}
	slices.Sort(t.slots)
	t.slots = slices.Compact(t.slots)
	return t.slots
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
			ct.pk[string(ct.appendPK(nil, nr))] = i
			ct.live++
		}
		for ci := range t.sec {
			ct.CreateIndex(t.Meta.Columns[ci].Name) //nolint:errcheck // column known valid
		}
	}
	return c
}
