// Package schema models relational schemas for the DSSP reproduction:
// relations with typed attributes, primary keys, and foreign keys. It also
// resolves column references of parsed statements against a schema, which
// both the execution engine and the static security analysis build on.
//
// The paper's §4.5 shows that a DSSP's knowledge of basic integrity
// constraints (primary keys and foreign keys) sharpens the invalidation
// analysis; this package is the source of truth for those constraints.
package schema

import (
	"fmt"
	"sort"
	"strings"

	"dssp/internal/sqlparse"
)

// Type is the declared type of a column.
type Type uint8

// Column types.
const (
	TInt Type = iota
	TFloat
	TString
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "STRING"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Kind returns the sqlparse value kind matching the column type.
func (t Type) Kind() sqlparse.ValueKind {
	switch t {
	case TInt:
		return sqlparse.KindInt
	case TFloat:
		return sqlparse.KindFloat
	default:
		return sqlparse.KindString
	}
}

// Column is one attribute of a relation.
type Column struct {
	Name string
	Type Type
}

// Table describes one relation.
type Table struct {
	Name       string
	Columns    []Column
	PrimaryKey []string // names of the key columns, in key order

	colIndex map[string]int
	pkIndex  []int
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIndex[name]; ok {
		return i
	}
	return -1
}

// PKIndexes returns the column ordinals of the primary key.
func (t *Table) PKIndexes() []int { return t.pkIndex }

// IsPrimaryKeyColumn reports whether the named column is part of the
// primary key.
func (t *Table) IsPrimaryKeyColumn(name string) bool {
	for _, k := range t.PrimaryKey {
		if k == name {
			return true
		}
	}
	return false
}

// ForeignKey declares that Table.Column references RefTable.RefColumn
// (which must be RefTable's single-column primary key).
type ForeignKey struct {
	Table     string
	Column    string
	RefTable  string
	RefColumn string
}

func (fk ForeignKey) String() string {
	return fmt.Sprintf("%s.%s -> %s.%s", fk.Table, fk.Column, fk.RefTable, fk.RefColumn)
}

// Schema is a set of relations plus integrity constraints.
type Schema struct {
	tables      map[string]*Table
	order       []string
	ForeignKeys []ForeignKey
}

// New returns an empty schema.
func New() *Schema {
	return &Schema{tables: make(map[string]*Table)}
}

// AddTable registers a relation. The primary key columns must exist.
func (s *Schema) AddTable(name string, columns []Column, primaryKey ...string) (*Table, error) {
	if _, dup := s.tables[name]; dup {
		return nil, fmt.Errorf("schema: duplicate table %q", name)
	}
	t := &Table{
		Name:       name,
		Columns:    columns,
		PrimaryKey: primaryKey,
		colIndex:   make(map[string]int, len(columns)),
	}
	for i, c := range columns {
		if _, dup := t.colIndex[c.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate column %s.%s", name, c.Name)
		}
		t.colIndex[c.Name] = i
	}
	for _, k := range primaryKey {
		i, ok := t.colIndex[k]
		if !ok {
			return nil, fmt.Errorf("schema: primary key column %s.%s does not exist", name, k)
		}
		t.pkIndex = append(t.pkIndex, i)
	}
	s.tables[name] = t
	s.order = append(s.order, name)
	return t, nil
}

// MustAddTable is AddTable for statically known schemas; it panics on error.
func (s *Schema) MustAddTable(name string, columns []Column, primaryKey ...string) *Table {
	t, err := s.AddTable(name, columns, primaryKey...)
	if err != nil {
		panic(err)
	}
	return t
}

// AddForeignKey registers a foreign-key constraint.
func (s *Schema) AddForeignKey(table, column, refTable, refColumn string) error {
	t := s.Table(table)
	if t == nil {
		return fmt.Errorf("schema: foreign key on unknown table %q", table)
	}
	if t.ColumnIndex(column) < 0 {
		return fmt.Errorf("schema: foreign key on unknown column %s.%s", table, column)
	}
	rt := s.Table(refTable)
	if rt == nil {
		return fmt.Errorf("schema: foreign key references unknown table %q", refTable)
	}
	if len(rt.PrimaryKey) != 1 || rt.PrimaryKey[0] != refColumn {
		return fmt.Errorf("schema: foreign key must reference the single-column primary key of %q", refTable)
	}
	s.ForeignKeys = append(s.ForeignKeys, ForeignKey{table, column, refTable, refColumn})
	return nil
}

// MustAddForeignKey is AddForeignKey that panics on error.
func (s *Schema) MustAddForeignKey(table, column, refTable, refColumn string) {
	if err := s.AddForeignKey(table, column, refTable, refColumn); err != nil {
		panic(err)
	}
}

// Table returns the named relation, or nil.
func (s *Schema) Table(name string) *Table { return s.tables[name] }

// Tables returns all relations in declaration order.
func (s *Schema) Tables() []*Table {
	out := make([]*Table, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.tables[n])
	}
	return out
}

// Attr canonically identifies a relation attribute (table.column), the unit
// over which the paper's template classification sets S(U), M(U), S(Q), and
// P(Q) are defined. Aliases are resolved away: in a self-join, t1.qty and
// t2.qty both denote Attr{toys, qty}.
type Attr struct {
	Table  string
	Column string
}

func (a Attr) String() string { return a.Table + "." + a.Column }

// AttrSet is a set of attributes.
type AttrSet map[Attr]struct{}

// NewAttrSet builds a set from the given attributes.
func NewAttrSet(attrs ...Attr) AttrSet {
	s := make(AttrSet, len(attrs))
	for _, a := range attrs {
		s[a] = struct{}{}
	}
	return s
}

// Add inserts an attribute.
func (s AttrSet) Add(a Attr) { s[a] = struct{}{} }

// Intersects reports whether the two sets share any attribute.
func (s AttrSet) Intersects(o AttrSet) bool {
	small, large := s, o
	if len(large) < len(small) {
		small, large = large, small
	}
	for a := range small {
		if _, ok := large[a]; ok {
			return true
		}
	}
	return false
}

// Union returns a new set holding all attributes of s and o.
func (s AttrSet) Union(o AttrSet) AttrSet {
	u := make(AttrSet, len(s)+len(o))
	for a := range s {
		u[a] = struct{}{}
	}
	for a := range o {
		u[a] = struct{}{}
	}
	return u
}

// Sorted returns the attributes in lexicographic order, for stable output.
func (s AttrSet) Sorted() []Attr {
	out := make([]Attr, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}

// String renders the set as {a, b, ...} in sorted order.
func (s AttrSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range s.Sorted() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteByte('}')
	return b.String()
}
