package sqlparse

import (
	"fmt"
	"strings"
)

// Statement is a parsed SQL statement: one of *SelectStmt, *InsertStmt,
// *DeleteStmt, or *UpdateStmt.
type Statement interface {
	fmt.Stringer
	stmtNode()
}

// ColumnRef names a column, optionally qualified by a table name or alias.
type ColumnRef struct {
	Table  string // table name or alias; empty if unqualified
	Column string
}

func (c ColumnRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// OperandKind discriminates the three operand forms of the subset grammar.
type OperandKind uint8

// Operand kinds.
const (
	OpColumn OperandKind = iota // a column reference
	OpParam                     // a `?` placeholder bound at execution time
	OpConst                     // a literal constant embedded in the template
)

// Operand is one side of a comparison predicate, an inserted value, or the
// right-hand side of a SET assignment.
type Operand struct {
	Kind  OperandKind
	Col   ColumnRef // valid when Kind == OpColumn
	Param int       // 0-based parameter ordinal, valid when Kind == OpParam
	Const Value     // valid when Kind == OpConst
}

func (o Operand) String() string {
	switch o.Kind {
	case OpColumn:
		return o.Col.String()
	case OpParam:
		return "?"
	case OpConst:
		return o.Const.String()
	default:
		return fmt.Sprintf("Operand(kind=%d)", o.Kind)
	}
}

// CompareOp is one of the five comparison operators permitted by the paper's
// query model ({<, <=, >, >=, =}).
type CompareOp uint8

// Comparison operators.
const (
	OpEq CompareOp = iota
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("CompareOp(%d)", uint8(op))
	}
}

// Flip returns the operator with its operand order reversed
// (e.g. a < b  ⟺  b > a).
func (op CompareOp) Flip() CompareOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

// Holds reports whether `cmp op 0` holds, where cmp is a three-way
// comparison result as returned by Value.Compare.
func (op CompareOp) Holds(cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	default:
		return false
	}
}

// Predicate is a single conjunct of a WHERE clause: `Left Op Right`.
type Predicate struct {
	Left  Operand
	Op    CompareOp
	Right Operand
}

func (p Predicate) String() string {
	return p.Left.String() + p.Op.String() + p.Right.String()
}

// IsJoin reports whether the predicate compares two columns (a join or
// cross-attribute condition) rather than a column against a constant or
// parameter.
func (p Predicate) IsJoin() bool {
	return p.Left.Kind == OpColumn && p.Right.Kind == OpColumn
}

// AggFunc identifies an aggregation function applied in a select expression.
type AggFunc uint8

// Aggregation functions of the subset (AggNone means a plain column).
const (
	AggNone AggFunc = iota
	AggMin
	AggMax
	AggCount
	AggSum
	AggAvg
)

func (a AggFunc) String() string {
	switch a {
	case AggNone:
		return ""
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(a))
	}
}

// SelectExpr is one projection item: `*`, `col`, `agg(col)`, or `COUNT(*)`.
type SelectExpr struct {
	Agg   AggFunc
	Star  bool      // `*` (alone, or inside COUNT(*))
	Col   ColumnRef // valid when !Star
	Alias string    // optional `AS alias`
}

func (e SelectExpr) String() string {
	var b strings.Builder
	inner := "*"
	if !e.Star {
		inner = e.Col.String()
	}
	if e.Agg != AggNone {
		b.WriteString(e.Agg.String())
		b.WriteByte('(')
		b.WriteString(inner)
		b.WriteByte(')')
	} else {
		b.WriteString(inner)
	}
	if e.Alias != "" {
		b.WriteString(" AS ")
		b.WriteString(e.Alias)
	}
	return b.String()
}

// TableRef names a relation in a FROM clause, with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

func (t TableRef) String() string {
	if t.Alias == "" {
		return t.Table
	}
	return t.Table + " AS " + t.Alias
}

// Name returns the name by which columns reference this table: the alias if
// present, otherwise the table name.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Col  ColumnRef
	Desc bool
}

func (k OrderKey) String() string {
	if k.Desc {
		return k.Col.String() + " DESC"
	}
	return k.Col.String()
}

// SelectStmt is a select-project-join query with conjunctive predicates,
// optional GROUP BY, ORDER BY, and top-k (LIMIT).
type SelectStmt struct {
	Select  []SelectExpr
	From    []TableRef
	Where   []Predicate
	GroupBy []ColumnRef
	OrderBy []OrderKey
	Limit   int // -1 when absent
}

func (*SelectStmt) stmtNode() {}

func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, e := range s.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	b.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	writeWhere(&b, s.Where)
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, c := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, k := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k.String())
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// HasAggregate reports whether any projection applies an aggregation
// function.
func (s *SelectStmt) HasAggregate() bool {
	for _, e := range s.Select {
		if e.Agg != AggNone {
			return true
		}
	}
	return false
}

// InsertStmt fully specifies a row of values to be added to a relation.
type InsertStmt struct {
	Table   string
	Columns []string
	Values  []Operand // parameters or constants only
}

func (*InsertStmt) stmtNode() {}

func (s *InsertStmt) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(s.Table)
	b.WriteString(" (")
	b.WriteString(strings.Join(s.Columns, ", "))
	b.WriteString(") VALUES (")
	for i, v := range s.Values {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteString(")")
	return b.String()
}

// DeleteStmt deletes the rows of a relation satisfying an arithmetic
// predicate.
type DeleteStmt struct {
	Table string
	Where []Predicate
}

func (*DeleteStmt) stmtNode() {}

func (s *DeleteStmt) String() string {
	var b strings.Builder
	b.WriteString("DELETE FROM ")
	b.WriteString(s.Table)
	writeWhere(&b, s.Where)
	return b.String()
}

// Assignment is one `column = operand` item of an UPDATE SET clause.
type Assignment struct {
	Column string
	Value  Operand
}

func (a Assignment) String() string { return a.Column + "=" + a.Value.String() }

// UpdateStmt modifies non-key attributes of the rows satisfying an equality
// predicate over the primary key of the relation.
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where []Predicate
}

func (*UpdateStmt) stmtNode() {}

func (s *UpdateStmt) String() string {
	var b strings.Builder
	b.WriteString("UPDATE ")
	b.WriteString(s.Table)
	b.WriteString(" SET ")
	for i, a := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	writeWhere(&b, s.Where)
	return b.String()
}

func writeWhere(b *strings.Builder, where []Predicate) {
	if len(where) == 0 {
		return
	}
	b.WriteString(" WHERE ")
	for i, p := range where {
		if i > 0 {
			b.WriteString(" AND ")
		}
		b.WriteString(p.String())
	}
}

// NumParams returns the number of `?` placeholders in the statement.
func NumParams(stmt Statement) int {
	n := 0
	walkOperands(stmt, func(o Operand) {
		if o.Kind == OpParam {
			n++
		}
	})
	return n
}

func walkOperands(stmt Statement, f func(Operand)) {
	walkPreds := func(where []Predicate) {
		for _, p := range where {
			f(p.Left)
			f(p.Right)
		}
	}
	switch s := stmt.(type) {
	case *SelectStmt:
		walkPreds(s.Where)
	case *InsertStmt:
		for _, v := range s.Values {
			f(v)
		}
	case *DeleteStmt:
		walkPreds(s.Where)
	case *UpdateStmt:
		for _, a := range s.Set {
			f(a.Value)
		}
		walkPreds(s.Where)
	}
}
