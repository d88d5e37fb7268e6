package invalidate

import (
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

// statement is the minimal statement-inspection strategy beyond the
// template level: it exploits bound parameter values (and, for insertions
// and modifications, the revealed new attribute values) to rule out
// interaction between the update and the cached query instance whose
// parameters are params.
//
// Insertion: the new row is fully specified. A query instance of the
// inserted relation is unaffected if the row fails one of the instance's
// predicates, or if the instance is shielded by a foreign-key join on a
// fresh primary key (§4.5 reasoning at statement level). The insertion is
// ignorable iff every instance is unaffected.
//
// Deletion: the deletion removes rows satisfying its predicate. A query
// instance is unaffected if the conjunction of the deletion predicate and
// the instance's predicates is unsatisfiable over a single row.
//
// Modification: the modified row's primary key and new attribute values
// are known. A query instance is unaffected if neither the pre-image (key
// bound, other attributes free) nor the post-image (key and SET attributes
// bound) can satisfy the instance's predicates.
func (p *PairPlan) statement(pu *PreparedUpdate, params []sqlparse.Value) Decision {
	switch p.kind {
	case kindInsert:
		if pu.row == nil {
			return Invalidate
		}
		for i := range p.insts {
			if !p.insts[i].excludes(pu.row, params) {
				return Invalidate
			}
		}
		return DNI
	case kindDelete, kindModify:
		if !pu.consOK {
			return Invalidate
		}
		for i := range p.insts {
			in := &p.insts[i]
			if in.sat(&pu.before, before, params) || (p.kind == kindModify && in.sat(&pu.after, after, params)) {
				return Invalidate
			}
		}
		return DNI
	default:
		return Invalidate
	}
}

// The two constraint sets of a prepared update, as planInst indexes them.
const (
	before = 0 // the WHERE clause: a deletion's rows, a modification's pre-image
	after  = 1 // a modification's post-image
)

// planInst is one FROM instance of the query over the updated table,
// compiled against the update's statement.
type planInst struct {
	preds    []instPred // the instance's value predicates, in WHERE order
	shielded bool       // FK-shielded on a freshly inserted primary key (insertions)

	// Deletions and modifications: the predicates grouped by column, each
	// group's column located in the prepared update's constraint sets, and
	// the update's columns no group constrains. need is the parameter count
	// the predicates bind; unbound marks an operand that binds nothing.
	groups  []predGroup
	only    [2][]int
	need    int
	unbound bool
}

// predGroup is an instance's predicates over one column, in WHERE order,
// and where the update's constraint on that column sits in its before and
// after sets (-1: the update does not constrain it).
type predGroup struct {
	col   string
	idx   [2]int
	preds []instPred
}

// compileInst compiles the query's FROM instance fi, over the updated
// table, against the layout of the update's constraint sets.
func compileInst(sch *schema.Schema, qi *queryInfo, fi int, table string, layout [2][]string) planInst {
	in := planInst{preds: qi.instPreds[fi], shielded: fkShielded(sch, qi, fi, table)}
	for _, pr := range in.preds {
		switch pr.val.Kind {
		case sqlparse.OpParam:
			in.need = max(in.need, pr.val.Param+1)
		case sqlparse.OpConst:
		default:
			in.unbound = true
		}
		gi := len(in.groups)
		for i := range in.groups {
			if in.groups[i].col == pr.attr.Column {
				gi = i
			}
		}
		if gi == len(in.groups) {
			g := predGroup{col: pr.attr.Column}
			for side := range layout {
				g.idx[side] = indexOf(layout[side], g.col)
			}
			in.groups = append(in.groups, g)
		}
		in.groups[gi].preds = append(in.groups[gi].preds, pr)
	}
	for side := range layout {
		for i, col := range layout[side] {
			constrained := false
			for _, g := range in.groups {
				constrained = constrained || g.col == col
			}
			if !constrained {
				in.only[side] = append(in.only[side], i)
			}
		}
	}
	return in
}

func indexOf(cols []string, col string) int {
	for i, c := range cols {
		if c == col {
			return i
		}
	}
	return -1
}

// excludes reports whether the instance cannot use the inserted row:
// either it is shielded by a foreign-key join on the fresh primary key, or
// some value predicate of the instance fails on the row.
func (in *planInst) excludes(row, params []sqlparse.Value) bool {
	if in.shielded {
		return true
	}
	for _, pr := range in.preds {
		v, ok := bindVal(pr.val, params)
		if !ok {
			continue // unknown comparison value: cannot exclude through it
		}
		rv := row[pr.colIdx]
		if rv.IsNull() || v.IsNull() || !pr.op.Holds(rv.Compare(v)) {
			return true
		}
	}
	return false
}

// sat reports whether the update's constraint set cs (its side of the
// prepared update) and the instance's predicates, bound to params, admit a
// common row. Each column's constraint starts from the update's own and
// takes the instance's predicates in WHERE order, so what is decided is
// what merging the predicates into a copy of cs would decide; the copy
// lives on the stack, one column at a time.
func (in *planInst) sat(cs *consSet, side int, params []sqlparse.Value) bool {
	if in.unbound || len(params) < in.need {
		return true // an unknown value: assume satisfiable
	}
	for gi := range in.groups {
		g := &in.groups[gi]
		var rc rangeCons
		if i := g.idx[side]; i >= 0 {
			uc := &cs.cols[i].rc
			// Two equalities that differ refute the column before any
			// copy: what add would find on the first predicate, and the
			// common case — WHERE k = ? against an entry's other k.
			if p0 := g.preds[0]; p0.op == sqlparse.OpEq && uc.hasEq {
				if v, _ := bindVal(p0.val, params); !uc.eq.Equal(v) {
					return false
				}
			}
			rc = *uc
		}
		for _, pr := range g.preds {
			v, _ := bindVal(pr.val, params)
			rc.add(pr.op, v)
		}
		if !rc.sat() {
			return false
		}
	}
	for _, i := range in.only[side] {
		if !cs.cols[i].rc.sat() {
			return false
		}
	}
	return true
}

// fkShielded reports whether instance fi joins the relation's single-column
// primary key against a declared foreign-key column, so a freshly inserted
// key cannot match any existing child row.
func fkShielded(sch *schema.Schema, qi *queryInfo, fi int, table string) bool {
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
