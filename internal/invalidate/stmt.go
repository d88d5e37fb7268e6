package invalidate

import (
	"sync"

	"dssp/internal/schema"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

// queryInfo is the prepared, per-query-template structure statement and
// view inspection work over: single-instance predicates partitioned by FROM
// index, join predicates, and resolution metadata.
type queryInfo struct {
	sel       *sqlparse.SelectStmt
	res       *schema.Resolver
	instPreds [][]instPred        // per FROM index: column-vs-value predicates
	joinPreds []joinPred          // column-vs-column predicates
	evalErr   bool                // resolution failed; force conservative decisions
	outIdx    map[schema.Attr]int // first result-column index per preserved attr

	// modify memoizes what view inspection of a modification resolves from
	// the (update template, this query template) pair alone: update
	// *template.Template → *modifyInfo.
	modify sync.Map
}

// instPred is a single-instance predicate `col op value` with the column on
// the left.
type instPred struct {
	colIdx int
	attr   schema.Attr
	op     sqlparse.CompareOp
	val    sqlparse.Operand // param or constant
}

// joinPred is a column-column predicate with both sides resolved.
type joinPred struct {
	op           sqlparse.CompareOp
	lFrom, rFrom int
	lAttr, rAttr schema.Attr
}

// infoFor returns the prepared inspection structure for a query template,
// memoized on the invalidator instance (keyed by template pointer, so two
// apps with identically named templates can never cross-contaminate, and
// the memo is released with the invalidator instead of leaking for the
// process lifetime).
func (iv *Invalidator) infoFor(q *template.Template) *queryInfo {
	if v, ok := iv.qinfo.Load(q); ok {
		return v.(*queryInfo)
	}
	qi := buildQueryInfo(iv.app.Schema, q)
	iv.qinfo.Store(q, qi)
	return qi
}

func buildQueryInfo(sch *schema.Schema, q *template.Template) *queryInfo {
	qi := &queryInfo{}
	sel, ok := q.Stmt.(*sqlparse.SelectStmt)
	if !ok {
		qi.evalErr = true
		return qi
	}
	qi.sel = sel
	res, err := schema.NewResolver(sch, sel.From)
	if err != nil {
		qi.evalErr = true
		return qi
	}
	qi.res = res
	qi.instPreds = make([][]instPred, len(sel.From))
	for _, p := range sel.Where {
		if p.IsJoin() {
			l, lerr := res.Resolve(p.Left.Col)
			r, rerr := res.Resolve(p.Right.Col)
			if lerr != nil || rerr != nil {
				qi.evalErr = true
				return qi
			}
			qi.joinPreds = append(qi.joinPreds, joinPred{p.Op, l.FromIndex, r.FromIndex, l.Attr, r.Attr})
			continue
		}
		col, other, op := p.Left, p.Right, p.Op
		if col.Kind != sqlparse.OpColumn {
			col, other, op = p.Right, p.Left, p.Op.Flip()
		}
		if col.Kind != sqlparse.OpColumn {
			continue // value-vs-value: no information
		}
		rc, err := res.Resolve(col.Col)
		if err != nil {
			qi.evalErr = true
			return qi
		}
		qi.instPreds[rc.FromIndex] = append(qi.instPreds[rc.FromIndex],
			instPred{rc.ColIndex, rc.Attr, op, other})
	}
	qi.outIdx = make(map[schema.Attr]int, len(q.OutAttrs))
	for i, a := range q.OutAttrs {
		if a != (schema.Attr{}) {
			if _, dup := qi.outIdx[a]; !dup {
				qi.outIdx[a] = i
			}
		}
	}
	return qi
}

// bindVal resolves a parameter or constant operand to its value.
func bindVal(o sqlparse.Operand, params []sqlparse.Value) (sqlparse.Value, bool) {
	switch o.Kind {
	case sqlparse.OpConst:
		return o.Const, true
	case sqlparse.OpParam:
		if o.Param < len(params) {
			return params[o.Param], true
		}
	}
	return sqlparse.Value{}, false
}

// rangeCons accumulates interval/equality constraints over one attribute
// and decides satisfiability. Integer gaps are ignored (a > 3 AND a < 4 is
// treated as satisfiable), which errs toward invalidation — conservative.
type rangeCons struct {
	infeasible      bool
	hasEq           bool
	eq              sqlparse.Value
	hasLo, loStrict bool
	lo              sqlparse.Value
	hasHi, hiStrict bool
	hi              sqlparse.Value
}

func (r *rangeCons) add(op sqlparse.CompareOp, v sqlparse.Value) {
	switch op {
	case sqlparse.OpEq:
		if r.hasEq && !r.eq.Equal(v) {
			r.infeasible = true
			return
		}
		r.hasEq, r.eq = true, v
	case sqlparse.OpLt, sqlparse.OpLe:
		strict := op == sqlparse.OpLt
		if !r.hasHi || v.Compare(r.hi) < 0 || (v.Equal(r.hi) && strict) {
			r.hasHi, r.hi, r.hiStrict = true, v, strict
		}
	case sqlparse.OpGt, sqlparse.OpGe:
		strict := op == sqlparse.OpGt
		if !r.hasLo || v.Compare(r.lo) > 0 || (v.Equal(r.lo) && strict) {
			r.hasLo, r.lo, r.loStrict = true, v, strict
		}
	}
}

func (r *rangeCons) sat() bool {
	if r.infeasible {
		return false
	}
	if r.hasEq {
		if r.hasLo {
			c := r.eq.Compare(r.lo)
			if c < 0 || (c == 0 && r.loStrict) {
				return false
			}
		}
		if r.hasHi {
			c := r.eq.Compare(r.hi)
			if c > 0 || (c == 0 && r.hiStrict) {
				return false
			}
		}
		return true
	}
	if r.hasLo && r.hasHi {
		c := r.lo.Compare(r.hi)
		if c > 0 || (c == 0 && (r.loStrict || r.hiStrict)) {
			return false
		}
	}
	return true
}

// statementDecide is the minimal statement-inspection strategy beyond the
// template level: it exploits bound parameter values (and, for insertions
// and modifications, the revealed new attribute values) to rule out
// interaction between the update and the cached query instance. All
// per-update state comes prepared; this path allocates nothing per entry.
func (iv *Invalidator) statementDecide(pu *PreparedUpdate, q CachedView) Decision {
	qi := iv.infoFor(q.Template)
	if qi.evalErr {
		return Invalidate
	}
	switch s := pu.u.Template.Stmt.(type) {
	case *sqlparse.InsertStmt:
		return iv.stmtInsert(qi, s, pu, q)
	case *sqlparse.DeleteStmt:
		return iv.stmtDelete(qi, s, pu, q)
	case *sqlparse.UpdateStmt:
		return iv.stmtModify(qi, s, pu, q)
	default:
		return Invalidate
	}
}

// insertedRow materializes the row an insertion adds (in column order,
// unspecified columns NULL — the engine's semantics for partial-column
// inserts), or nil if parameters are missing or the statement is
// malformed. The parser rejects mismatched column/value counts, but
// templates can also be built from hand-assembled ASTs, and a nil return
// must stay the conservative Invalidate rather than a panic inside the
// cache's invalidation pass.
func insertedRow(sch *schema.Schema, s *sqlparse.InsertStmt, params []sqlparse.Value) []sqlparse.Value {
	t := sch.Table(s.Table)
	if t == nil || len(s.Columns) != len(s.Values) {
		return nil
	}
	row := make([]sqlparse.Value, len(t.Columns))
	for i, c := range s.Columns {
		ci := t.ColumnIndex(c)
		if ci < 0 {
			return nil
		}
		v, ok := bindVal(s.Values[i], params)
		if !ok {
			return nil
		}
		row[ci] = v
	}
	return row
}

// stmtInsert: the new row is fully specified. A query instance of the
// inserted relation is unaffected if the row fails one of the instance's
// predicates, or if the instance is shielded by a foreign-key join on a
// fresh primary key (§4.5 reasoning at statement level). The insertion is
// ignorable iff every instance is unaffected.
func (iv *Invalidator) stmtInsert(qi *queryInfo, s *sqlparse.InsertStmt, pu *PreparedUpdate, q CachedView) Decision {
	row := pu.row
	if row == nil {
		return Invalidate
	}
	touched := false
	for fi, f := range qi.sel.From {
		if f.Table != s.Table {
			continue
		}
		touched = true
		if !iv.insertExcluded(qi, fi, s.Table, row, q.Params) {
			return Invalidate
		}
	}
	if !touched {
		// The insertion's relation is not referenced; template inspection
		// normally catches this, but COUNT(*) pairs can reach here.
		return DNI
	}
	return DNI
}

// insertExcluded reports whether FROM instance fi cannot use the inserted
// row: either some value predicate of the instance fails on the row, or the
// instance is shielded by a foreign-key join on the fresh primary key.
func (iv *Invalidator) insertExcluded(qi *queryInfo, fi int, table string, row, qParams []sqlparse.Value) bool {
	for _, p := range qi.instPreds[fi] {
		v, ok := bindVal(p.val, qParams)
		if !ok {
			continue // unknown comparison value: cannot exclude through it
		}
		rv := row[p.colIdx]
		if rv.IsNull() || v.IsNull() || !p.op.Holds(rv.Compare(v)) {
			return true
		}
	}
	return iv.fkShielded(qi, fi, table)
}

// fkShielded reports whether instance fi joins the relation's single-column
// primary key against a declared foreign-key column, so a freshly inserted
// key cannot match any existing child row.
func (iv *Invalidator) fkShielded(qi *queryInfo, fi int, table string) bool {
	sch := iv.app.Schema
	meta := sch.Table(table)
	if meta == nil || len(meta.PrimaryKey) != 1 {
		return false
	}
	pk := meta.PrimaryKey[0]
	for _, jp := range qi.joinPreds {
		if jp.op != sqlparse.OpEq {
			continue
		}
		var other schema.Attr
		switch {
		case jp.lFrom == fi && jp.lAttr.Column == pk:
			other = jp.rAttr
		case jp.rFrom == fi && jp.rAttr.Column == pk:
			other = jp.lAttr
		default:
			continue
		}
		for _, fk := range sch.ForeignKeys {
			if fk.RefTable == table && fk.RefColumn == pk && fk.Table == other.Table && fk.Column == other.Column {
				return true
			}
		}
	}
	return false
}

// stmtDelete: the deletion removes rows satisfying its predicate. A query
// instance is unaffected if the conjunction of the deletion predicate and
// the instance's predicates is unsatisfiable over a single row.
func (iv *Invalidator) stmtDelete(qi *queryInfo, s *sqlparse.DeleteStmt, pu *PreparedUpdate, q CachedView) Decision {
	if !pu.consOK {
		return Invalidate
	}
	for fi, f := range qi.sel.From {
		if f.Table != s.Table {
			continue
		}
		if iv.combinedSat(&pu.before, qi.instPreds[fi], q.Params) {
			return Invalidate
		}
	}
	return DNI
}

// stmtModify: the modified row's primary key and new attribute values are
// known. A query instance is unaffected if neither the pre-image (key
// bound, other attributes free) nor the post-image (key and SET attributes
// bound) can satisfy the instance's predicates.
func (iv *Invalidator) stmtModify(qi *queryInfo, s *sqlparse.UpdateStmt, pu *PreparedUpdate, q CachedView) Decision {
	if !pu.consOK {
		return Invalidate
	}
	for fi, f := range qi.sel.From {
		if f.Table != s.Table {
			continue
		}
		if iv.combinedSat(&pu.before, qi.instPreds[fi], q.Params) ||
			iv.combinedSat(&pu.after, qi.instPreds[fi], q.Params) {
			return Invalidate
		}
	}
	return DNI
}

// updateConsInto converts an update's single-table predicate into
// per-column range constraints, resetting cs first. It fails (false) for
// column-column predicates, which the range model cannot express.
func updateConsInto(cs *consSet, where []sqlparse.Predicate, params []sqlparse.Value) bool {
	cs.reset()
	for _, p := range where {
		col, other, op := p.Left, p.Right, p.Op
		if col.Kind != sqlparse.OpColumn {
			col, other, op = p.Right, p.Left, p.Op.Flip()
		}
		if col.Kind != sqlparse.OpColumn || other.Kind == sqlparse.OpColumn {
			return false
		}
		v, ok := bindVal(other, params)
		if !ok {
			return false
		}
		cs.get(col.Col.Column).add(op, v)
	}
	return true
}

// combinedSat reports whether the update constraints plus the query
// instance's predicates admit a common row. The merge runs in pooled
// scratch; uCons is never mutated.
func (iv *Invalidator) combinedSat(uCons *consSet, preds []instPred, qParams []sqlparse.Value) bool {
	m := iv.getScratch()
	defer iv.putScratch(m)
	m.copyFrom(uCons)
	for _, p := range preds {
		v, ok := bindVal(p.val, qParams)
		if !ok {
			return true // unknown value: assume satisfiable
		}
		m.get(p.attr.Column).add(p.op, v)
	}
	return m.sat()
}
