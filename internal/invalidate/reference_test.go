package invalidate

import (
	"sync"

	"dssp/internal/schema"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

// The reference decision path. This is the per-entry decision the
// invalidator ran in production until pair plans (plan.go) took over: every
// decision re-resolved what the (update template, query template) pair
// fixes — the A = 0 verdict through Analysis.Pair, the query's inspection
// structure through a memo, the modification's view structure through
// another — and merged the prepared update's constraints into pooled
// scratch per entry. It moved here unchanged (less a branch of stmtInsert
// that could only return what the loop before it returns), only tests may
// call it, and FuzzPairPlanMatchesReference holds the plans to its
// decisions.

// reference carries the per-entry path's memos, which the invalidator no
// longer has.
type reference struct {
	iv *Invalidator

	// qinfo memoizes queryInfo per query template; modify memoizes
	// modifyInfo per (update template, query template).
	qinfo  sync.Map
	modify sync.Map

	// satScratch pools *consSet merge scratch for satisfiability checks.
	satScratch sync.Pool
}

func newReference(iv *Invalidator) *reference { return &reference{iv: iv} }

// decide is what DecidePrepared was: the decision of the given strategy
// class for a prepared update against a cached view.
func (r *reference) decide(class Class, pu *PreparedUpdate, q CachedView) Decision {
	switch class {
	case Blind:
		return Invalidate
	case TemplateInspection:
		return r.templateDecide(pu.u.Template, q.Template)
	case StatementInspection:
		if r.templateDecide(pu.u.Template, q.Template) == DNI {
			return DNI
		}
		return r.statementDecide(pu, q)
	case ViewInspection:
		if r.templateDecide(pu.u.Template, q.Template) == DNI {
			return DNI
		}
		if r.statementDecide(pu, q) == DNI {
			return DNI
		}
		return r.viewDecide(pu, q)
	default:
		return Invalidate
	}
}

func (r *reference) getScratch() *consSet {
	if v := r.satScratch.Get(); v != nil {
		return v.(*consSet)
	}
	return &consSet{}
}

func (r *reference) putScratch(cs *consSet) { r.satScratch.Put(cs) }

// templateDecide is the minimal template-inspection strategy: invalidate
// iff the static analysis could not establish A = 0 for the pair.
func (r *reference) templateDecide(u, q *template.Template) Decision {
	pa, ok := r.iv.analysis.Pair(u.ID, q.ID)
	if !ok {
		return Invalidate // unknown pair: conservative
	}
	if pa.AZero {
		return DNI
	}
	return Invalidate
}

// infoFor returns the prepared inspection structure for a query template,
// memoized by template pointer.
func (r *reference) infoFor(q *template.Template) *queryInfo {
	if v, ok := r.qinfo.Load(q); ok {
		return v.(*queryInfo)
	}
	qi := buildQueryInfo(r.iv.app.Schema, q)
	r.qinfo.Store(q, qi)
	return qi
}

// statementDecide is the minimal statement-inspection strategy beyond the
// template level.
func (r *reference) statementDecide(pu *PreparedUpdate, q CachedView) Decision {
	qi := r.infoFor(q.Template)
	if qi.evalErr {
		return Invalidate
	}
	switch s := pu.u.Template.Stmt.(type) {
	case *sqlparse.InsertStmt:
		return r.stmtInsert(qi, s, pu, q)
	case *sqlparse.DeleteStmt:
		return r.stmtDelete(qi, s, pu, q)
	case *sqlparse.UpdateStmt:
		return r.stmtModify(qi, s, pu, q)
	default:
		return Invalidate
	}
}

func (r *reference) stmtInsert(qi *queryInfo, s *sqlparse.InsertStmt, pu *PreparedUpdate, q CachedView) Decision {
	row := pu.row
	if row == nil {
		return Invalidate
	}
	for fi, f := range qi.sel.From {
		if f.Table != s.Table {
			continue
		}
		if !r.insertExcluded(qi, fi, s.Table, row, q.Params) {
			return Invalidate
		}
	}
	return DNI
}

func (r *reference) insertExcluded(qi *queryInfo, fi int, table string, row, qParams []sqlparse.Value) bool {
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
	return fkShielded(r.iv.app.Schema, qi, fi, table)
}

func (r *reference) stmtDelete(qi *queryInfo, s *sqlparse.DeleteStmt, pu *PreparedUpdate, q CachedView) Decision {
	if !pu.consOK {
		return Invalidate
	}
	for fi, f := range qi.sel.From {
		if f.Table != s.Table {
			continue
		}
		if r.combinedSat(&pu.before, qi.instPreds[fi], q.Params) {
			return Invalidate
		}
	}
	return DNI
}

func (r *reference) stmtModify(qi *queryInfo, s *sqlparse.UpdateStmt, pu *PreparedUpdate, q CachedView) Decision {
	if !pu.consOK {
		return Invalidate
	}
	for fi, f := range qi.sel.From {
		if f.Table != s.Table {
			continue
		}
		if r.combinedSat(&pu.before, qi.instPreds[fi], q.Params) ||
			r.combinedSat(&pu.after, qi.instPreds[fi], q.Params) {
			return Invalidate
		}
	}
	return DNI
}

// combinedSat reports whether the update constraints plus the query
// instance's predicates admit a common row. The merge runs in pooled
// scratch; uCons is never mutated.
func (r *reference) combinedSat(uCons *consSet, preds []instPred, qParams []sqlparse.Value) bool {
	m := r.getScratch()
	defer r.putScratch(m)
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

// sat reports whether every column's constraints are satisfiable.
func (cs *consSet) sat() bool {
	for i := range cs.cols {
		if !cs.cols[i].rc.sat() {
			return false
		}
	}
	return true
}

// viewDecide is the minimal view-inspection strategy beyond the statement
// level.
func (r *reference) viewDecide(pu *PreparedUpdate, q CachedView) Decision {
	if q.Result == nil {
		return Invalidate
	}
	qi := r.infoFor(q.Template)
	if qi.evalErr {
		return Invalidate
	}
	switch s := pu.u.Template.Stmt.(type) {
	case *sqlparse.DeleteStmt:
		return r.viewDelete(qi, s, pu.u.Params, q)
	case *sqlparse.InsertStmt:
		return r.viewInsert(qi, s, pu, q)
	case *sqlparse.UpdateStmt:
		return r.viewModify(qi, s, pu, q)
	default:
		return Invalidate
	}
}

func (r *reference) viewDelete(qi *queryInfo, s *sqlparse.DeleteStmt, params []sqlparse.Value, q CachedView) Decision {
	if q.Template.HasAggregate || q.Template.InstanceCount(s.Table) != 1 {
		return Invalidate
	}
	// Map every attribute the deletion predicate references to a result
	// column.
	colOf := func(col sqlparse.ColumnRef) (int, bool) {
		a := schema.Attr{Table: s.Table, Column: col.Column}
		i, ok := qi.outIdx[a]
		return i, ok
	}
	for i := range q.Result.Len() {
		row := q.Result.Row(i)
		matches := true
		for _, p := range s.Where {
			lv, ok := predSide(p.Left, params, row, colOf)
			if !ok {
				return Invalidate
			}
			rv, ok := predSide(p.Right, params, row, colOf)
			if !ok {
				return Invalidate
			}
			if lv.IsNull() || rv.IsNull() || !p.Op.Holds(lv.Compare(rv)) {
				matches = false
				break
			}
		}
		if matches {
			return Invalidate
		}
	}
	return DNI
}

// predSide evaluates one predicate operand against a result row, using the
// preserved-attribute mapping for columns.
func predSide(o sqlparse.Operand, params []sqlparse.Value, row []sqlparse.Value,
	colOf func(sqlparse.ColumnRef) (int, bool)) (sqlparse.Value, bool) {
	if o.Kind == sqlparse.OpColumn {
		i, ok := colOf(o.Col)
		if !ok {
			return sqlparse.Value{}, false
		}
		return row[i], true
	}
	return bindVal(o, params)
}

func (r *reference) viewInsert(qi *queryInfo, s *sqlparse.InsertStmt, pu *PreparedUpdate, q CachedView) Decision {
	t := q.Template
	if len(qi.sel.From) != 1 || qi.sel.From[0].Table != s.Table || t.HasGroupBy {
		return Invalidate
	}
	row := pu.row
	if row == nil {
		return Invalidate
	}
	meta := r.iv.app.Schema.Table(s.Table)

	// MIN/MAX aggregate: compare the inserted value against the cached
	// extremum (§4.4 example b).
	if t.HasAggregate {
		if len(qi.sel.Select) != 1 {
			return Invalidate
		}
		e := qi.sel.Select[0]
		if e.Star || (e.Agg != sqlparse.AggMin && e.Agg != sqlparse.AggMax) {
			return Invalidate
		}
		if q.Result.Len() != 1 {
			return Invalidate
		}
		cached := q.Result.Row(0)[0]
		if cached.IsNull() {
			return Invalidate // empty input: the new row defines the extremum
		}
		ci := meta.ColumnIndex(e.Col.Column)
		if ci < 0 {
			return Invalidate
		}
		nv := row[ci]
		if nv.IsNull() {
			return DNI // NULLs do not participate in aggregates
		}
		if e.Agg == sqlparse.AggMax && nv.Compare(cached) <= 0 {
			return DNI
		}
		if e.Agg == sqlparse.AggMin && nv.Compare(cached) >= 0 {
			return DNI
		}
		return Invalidate
	}

	// Top-k: if the result already holds k rows and the new row sorts
	// strictly after the last cached row, the first k rows are unchanged.
	if qi.sel.Limit < 0 || len(qi.sel.OrderBy) == 0 {
		return Invalidate
	}
	if q.Result.Len() < qi.sel.Limit {
		return Invalidate // room below the cutoff: the row enters
	}
	if q.Result.Len() == 0 {
		return Invalidate // LIMIT 0 never caches anything useful
	}
	last := q.Result.Row(q.Result.Len() - 1)
	for _, k := range qi.sel.OrderBy {
		ci := meta.ColumnIndex(k.Col.Column)
		oi, ok := qi.outIdx[schema.Attr{Table: s.Table, Column: k.Col.Column}]
		if ci < 0 || !ok {
			return Invalidate // order key not preserved in the result
		}
		if d, decided := pastCutoff(row[ci], last[oi], k.Desc); decided {
			return d
		}
		// Equal on this key: compare the next one.
	}
	return Invalidate // tied on every key: cutoff position unknown
}

func (r *reference) viewModify(qi *queryInfo, s *sqlparse.UpdateStmt, pu *PreparedUpdate, q CachedView) Decision {
	mi := r.modifyInfoFor(qi, q.Template, pu.u.Template, s)
	if !mi.identifiable {
		return Invalidate
	}
	key, ok := bindVal(mi.key, pu.u.Params)
	if !ok {
		return Invalidate
	}
	n := q.Result.Len()
	for i := range n {
		if q.Result.Row(i)[mi.keyOut].Compare(key) == 0 {
			return Invalidate // the modified row is in the cached result
		}
	}
	bound := qi.sel.Limit >= 0 && n >= qi.sel.Limit
	if mi.setInWhere {
		if pu.consOK && !r.combinedSat(&pu.after, qi.instPreds[mi.from], q.Params) {
			return DNI // the post-image fails the predicates, whether or not LIMIT binds
		}
		if !bound {
			return Invalidate // the post-image may enter the result
		}
	} else if !bound {
		return DNI // frame rule: outside before, outside after
	}
	if n == 0 {
		return Invalidate // LIMIT 0 never caches anything useful
	}
	last := q.Result.Row(n - 1)
	for _, k := range mi.order {
		nv, ok := bindVal(k.val, pu.u.Params)
		if !ok {
			return Invalidate
		}
		if d, decided := pastCutoff(nv, last[k.out], k.desc); decided {
			return d
		}
	}
	return Invalidate // tied, or the next key's post-image is unknown
}

// modifyInfoFor returns the pair's modifyInfo, memoized under the two
// template pointers.
func (r *reference) modifyInfoFor(qi *queryInfo, q, u *template.Template, s *sqlparse.UpdateStmt) *modifyInfo {
	key := [2]*template.Template{u, q}
	if v, ok := r.modify.Load(key); ok {
		return v.(*modifyInfo)
	}
	mi := buildModifyInfo(r.iv.app.Schema, qi, q, s)
	r.modify.Store(key, mi)
	return mi
}
