package engine

import (
	"fmt"
	"slices"

	"dssp/internal/schema"
	"dssp/internal/sqlparse"
)

// Plan is a select statement compiled against a schema: everything that
// depends only on the template is resolved once — FROM tables, every
// operand down to (FROM index, column ordinal | parameter | constant), the
// join level at which each predicate becomes bound, the candidate equality
// access paths per level, projection, order keys, aggregate outputs and
// output column names. A Plan is immutable after Compile and safe to Run
// from any number of goroutines; everything a run mutates lives in that
// run's own scratch (see exec).
//
// Compiling changes how fast a statement runs, never what it does: a Plan
// binds FROM entries in FROM order, picks each level's access path by the
// interpreter's rule (single-column primary key, else the first equality
// predicate whose column is indexed, else a scan), enumerates rows in the
// same order and therefore reports the same Result — Columns, Rows, and
// RowsScanned, which is sealed into results and is the simulator's cost
// input. That pins the plan shape: no join reordering, no early exit on
// LIMIT.
type Plan struct {
	// NumParams is the number of `?` placeholders; Run requires exactly
	// that many parameter values.
	NumParams int

	schema  *schema.Schema
	levels  []level  // one per FROM entry, bound in FROM order
	columns []string // Result.Columns of every run
	limit   int      // -1 when absent

	// Plain (non-aggregate) queries: projection and ORDER BY over the
	// joined tuple.
	proj  []colRef
	order []orderKey

	// Aggregate/GROUP BY queries: outs is non-empty, ORDER BY names
	// output columns.
	groupBy  []colRef
	outs     []aggOut
	outOrder []outOrderKey
}

// colRef addresses one column of the joined tuple.
type colRef struct {
	from, col int
}

type orderKey struct {
	colRef
	desc bool
}

// outOrderKey orders an aggregate query by one of its output columns.
type outOrderKey struct {
	col  int
	desc bool
}

// operand is a resolved sqlparse.Operand.
type operand struct {
	kind  sqlparse.OperandKind
	col   colRef         // OpColumn
	param int            // OpParam
	val   sqlparse.Value // OpConst
}

type pred struct {
	left, right operand
	op          sqlparse.CompareOp
}

// eqPath is an equality predicate `col = val` usable as an access path:
// col belongs to the level's table and val is computable before the level
// binds (a constant, a parameter, or a column of an earlier level).
type eqPath struct {
	col int
	val operand
}

// level is one FROM entry: the predicates that become fully bound once
// its row is, and the ways to find its rows without a scan.
type level struct {
	table string
	preds []pred

	// pk is the probe of the table's single-column primary key, when an
	// equality predicate supplies one; it wins over every index.
	pk    operand
	hasPK bool
	// eq lists the other equality paths in predicate order. Whether a
	// column is indexed is a property of the database, so Run checks it.
	eq []eqPath
}

// aggOut is one output column of an aggregate query: an aggregate over
// src, COUNT(*) (star), or a GROUP BY column passed through (AggNone).
type aggOut struct {
	agg  sqlparse.AggFunc
	star bool
	src  colRef
}

// Compile resolves a select statement against a schema. Statements that
// can never execute — unknown or ambiguous names, a non-aggregated column
// outside GROUP BY, an ORDER BY key an aggregate query does not output,
// SUM/AVG over a string column — fail here rather than at their first row.
func Compile(s *schema.Schema, q *sqlparse.SelectStmt) (*Plan, error) {
	if len(q.From) == 0 || len(q.Select) == 0 {
		return nil, fmt.Errorf("engine: select statement needs a SELECT list and a FROM list")
	}
	res, err := schema.NewResolver(s, q.From)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		NumParams: sqlparse.NumParams(q),
		schema:    s,
		levels:    make([]level, len(q.From)),
		limit:     q.Limit,
	}
	for i, t := range res.Tables() {
		p.levels[i].table = t.Name
	}
	for _, wp := range q.Where {
		if err := p.addPredicate(res, wp); err != nil {
			return nil, err
		}
	}
	if q.HasAggregate() || len(q.GroupBy) > 0 {
		err = p.compileAggregate(res, q)
	} else {
		err = p.compilePlain(res, q)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

func resolveCol(res *schema.Resolver, c sqlparse.ColumnRef) (colRef, error) {
	rc, err := res.Resolve(c)
	return colRef{rc.FromIndex, rc.ColIndex}, err
}

func (p *Plan) resolveOperand(res *schema.Resolver, o sqlparse.Operand) (operand, error) {
	switch o.Kind {
	case sqlparse.OpConst:
		return operand{kind: o.Kind, val: o.Const}, nil
	case sqlparse.OpParam:
		if o.Param < 0 || o.Param >= p.NumParams {
			return operand{}, fmt.Errorf("engine: parameter ordinal %d outside the statement's %d parameters", o.Param, p.NumParams)
		}
		return operand{kind: o.Kind, param: o.Param}, nil
	case sqlparse.OpColumn:
		col, err := resolveCol(res, o.Col)
		return operand{kind: o.Kind, col: col}, err
	default:
		return operand{}, fmt.Errorf("engine: bad operand kind %d", o.Kind)
	}
}

// addPredicate files a WHERE conjunct under the highest FROM index it
// references, so it is evaluated as soon as its tables are bound, and
// records the access path it offers that level, if any.
func (p *Plan) addPredicate(res *schema.Resolver, wp sqlparse.Predicate) error {
	l, err := p.resolveOperand(res, wp.Left)
	if err != nil {
		return err
	}
	r, err := p.resolveOperand(res, wp.Right)
	if err != nil {
		return err
	}
	at := 0
	for _, o := range [2]operand{l, r} {
		if o.kind == sqlparse.OpColumn && o.col.from > at {
			at = o.col.from
		}
	}
	lv := &p.levels[at]
	lv.preds = append(lv.preds, pred{l, r, wp.Op})
	if wp.Op != sqlparse.OpEq {
		return nil
	}
	for _, side := range [2][2]operand{{l, r}, {r, l}} {
		col, other := side[0], side[1]
		if col.kind != sqlparse.OpColumn || col.col.from != at {
			continue
		}
		if other.kind == sqlparse.OpColumn && other.col.from >= at {
			continue // not bound yet
		}
		pk := res.Tables()[at].PKIndexes()
		if len(pk) == 1 && pk[0] == col.col.col {
			if !lv.hasPK {
				lv.pk, lv.hasPK = other, true
			}
		} else {
			lv.eq = append(lv.eq, eqPath{col.col.col, other})
		}
		break
	}
	return nil
}

// compilePlain resolves ORDER BY against the joined tuple and expands the
// projection (`*` is every column of every FROM entry).
func (p *Plan) compilePlain(res *schema.Resolver, q *sqlparse.SelectStmt) error {
	for _, k := range q.OrderBy {
		col, err := resolveCol(res, k.Col)
		if err != nil {
			return err
		}
		p.order = append(p.order, orderKey{col, k.Desc})
	}
	for _, e := range q.Select {
		if e.Star {
			for fi, t := range res.Tables() {
				for ci, c := range t.Columns {
					p.columns = append(p.columns, c.Name)
					p.proj = append(p.proj, colRef{fi, ci})
				}
			}
			continue
		}
		col, err := resolveCol(res, e.Col)
		if err != nil {
			return err
		}
		name := e.Col.Column
		if e.Alias != "" {
			name = e.Alias
		}
		p.columns = append(p.columns, name)
		p.proj = append(p.proj, col)
	}
	return nil
}

// compileAggregate resolves an aggregation/GROUP BY query. Output columns
// follow the SELECT list: group-by columns pass through and aggregates are
// computed per group. ORDER BY may name group-by columns or aggregate
// aliases — output columns, that is.
func (p *Plan) compileAggregate(res *schema.Resolver, q *sqlparse.SelectStmt) error {
	for _, g := range q.GroupBy {
		col, err := resolveCol(res, g)
		if err != nil {
			return err
		}
		p.groupBy = append(p.groupBy, col)
	}
	for _, e := range q.Select {
		name := e.Alias
		if name == "" {
			if e.Star {
				name = "count"
			} else {
				name = e.Col.Column
			}
		}
		out := aggOut{agg: e.Agg, star: e.Star}
		if e.Star {
			if e.Agg != sqlparse.AggCount {
				return fmt.Errorf("engine: in an aggregate query * may only appear as COUNT(*)")
			}
		} else {
			var err error
			if out.src, err = resolveCol(res, e.Col); err != nil {
				return err
			}
			switch e.Agg {
			case sqlparse.AggNone:
				if !slices.Contains(p.groupBy, out.src) {
					return fmt.Errorf("engine: non-aggregated column %s must appear in GROUP BY", e.Col)
				}
			case sqlparse.AggSum, sqlparse.AggAvg:
				// Value.AsFloat panics on a string; refuse the template
				// instead of the first row.
				if res.Tables()[out.src.from].Columns[out.src.col].Type == schema.TString {
					return fmt.Errorf("engine: %s over string column %s", e.Agg, e.Col)
				}
			}
		}
		p.columns = append(p.columns, name)
		p.outs = append(p.outs, out)
	}
	for _, k := range q.OrderBy {
		ci := slices.Index(p.columns, k.Col.Column)
		if ci < 0 {
			return fmt.Errorf("engine: ORDER BY %s must name an output column of the aggregate query", k.Col)
		}
		p.outOrder = append(p.outOrder, outOrderKey{ci, k.Desc})
	}
	return nil
}
