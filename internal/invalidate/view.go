package invalidate

import (
	"math"

	"dssp/internal/schema"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

// viewDecide is the minimal view-inspection strategy beyond the statement
// level: it inspects the cached result itself. It is invoked only after
// statement inspection has decided to invalidate, and may overturn that
// decision when the result proves the update cannot change it.
func (iv *Invalidator) viewDecide(pu *PreparedUpdate, q CachedView) Decision {
	if q.Result == nil {
		return Invalidate
	}
	qi := iv.infoFor(q.Template)
	if qi.evalErr {
		return Invalidate
	}
	switch s := pu.u.Template.Stmt.(type) {
	case *sqlparse.DeleteStmt:
		return iv.viewDelete(qi, s, pu.u.Params, q)
	case *sqlparse.InsertStmt:
		return iv.viewInsert(qi, s, pu, q)
	case *sqlparse.UpdateStmt:
		return iv.viewModify(qi, s, pu, q)
	default:
		return Invalidate
	}
}

// viewDelete: SPJ results are monotone in deletions — a deletion changes
// the cached result only if it removes a contributing base row, and every
// contributing row's relevant attribute values appear in the result when
// they are preserved. If the deletion predicate can be evaluated over the
// preserved attributes and no result row satisfies it, the result is
// untouched (this also holds under ORDER BY and LIMIT: removing rows at or
// beyond the cutoff never changes the top k... removing rows beyond the
// cutoff; removals at the cutoff are caught because those rows are in the
// result).
func (iv *Invalidator) viewDelete(qi *queryInfo, s *sqlparse.DeleteStmt, params []sqlparse.Value, q CachedView) Decision {
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
	for _, row := range q.Result.Rows {
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

// viewInsert handles the two §4.4 cases where view inspection beats
// statement inspection for insertions: top-k queries and MIN/MAX
// aggregates over a single relation. The inserted row is fully known and —
// for single-relation queries — already known to satisfy the selection
// predicates (statement inspection would otherwise have excluded it).
func (iv *Invalidator) viewInsert(qi *queryInfo, s *sqlparse.InsertStmt, pu *PreparedUpdate, q CachedView) Decision {
	t := q.Template
	if len(qi.sel.From) != 1 || qi.sel.From[0].Table != s.Table || t.HasGroupBy {
		return Invalidate
	}
	row := pu.row
	if row == nil {
		return Invalidate
	}
	meta := iv.app.Schema.Table(s.Table)

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
		cached := q.Result.Rows[0][0]
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
	// Full-key ties are conservative: the engine breaks ties on tuple
	// content, which the view may not preserve, so the new row could sort
	// either side of the cutoff.
	if qi.sel.Limit < 0 || len(qi.sel.OrderBy) == 0 {
		return Invalidate
	}
	if q.Result.Len() < qi.sel.Limit {
		return Invalidate // room below the cutoff: the row enters
	}
	if q.Result.Len() == 0 {
		return Invalidate // LIMIT 0 never caches anything useful
	}
	last := q.Result.Rows[q.Result.Len()-1]
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

// viewModify is the §4.4 modification logic. A modification `UPDATE t SET …
// WHERE pk=?` touches one row, and a result that preserves t's primary key
// shows whether that row contributed to it. When it did, the result has
// changed. When it did not — the row is absent — two rules decide:
//
// Frame rule. If LIMIT does not bind, the result holds every row that
// satisfies the query's predicates, so the pre-image fails them (or has no
// join partner). A SET that writes none of the columns the WHERE clause
// compares on this instance leaves the post-image failing them too: DNI. A
// SET that writes one is decided by whether the post-image can satisfy the
// instance's predicates — and that test holds under a binding LIMIT as
// well: a row that is not among the first k and leaves the full result
// cannot change the first k.
//
// Top-k boundary. If LIMIT binds, the absent row may lie past the cutoff,
// and its post-image may move. The ORDER BY keys are walked as viewInsert
// walks them, against the last cached row: a post-image that sorts strictly
// after it stays past the cutoff (DNI); one that sorts before it enters;
// one tied on every key it is known on is conservative — the engine breaks
// ties on full tuple content, which a SET of any column can flip — and so
// is a key whose post-image value the update does not reveal, or which the
// result does not preserve.
//
// Row identity is Value.Compare, the engine's own equality: 5 and 5.0 are
// one key, and a NaN compares equal to everything, so every doubtful case
// reads as present.
func (iv *Invalidator) viewModify(qi *queryInfo, s *sqlparse.UpdateStmt, pu *PreparedUpdate, q CachedView) Decision {
	mi := iv.modifyInfoFor(qi, q.Template, pu.u.Template, s)
	if !mi.identifiable {
		return Invalidate
	}
	key, ok := bindVal(mi.key, pu.u.Params)
	if !ok {
		return Invalidate
	}
	rows := q.Result.Rows
	for _, row := range rows {
		if row[mi.keyOut].Compare(key) == 0 {
			return Invalidate // the modified row is in the cached result
		}
	}
	bound := qi.sel.Limit >= 0 && len(rows) >= qi.sel.Limit
	if mi.setInWhere {
		if pu.consOK && !iv.combinedSat(&pu.after, qi.instPreds[mi.from], q.Params) {
			return DNI // the post-image fails the predicates, whether or not LIMIT binds
		}
		if !bound {
			return Invalidate // the post-image may enter the result
		}
	} else if !bound {
		return DNI // frame rule: outside before, outside after
	}
	if len(rows) == 0 {
		return Invalidate // LIMIT 0 never caches anything useful
	}
	last := rows[len(rows)-1]
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

// pastCutoff compares one ORDER BY key of a row image against the last row
// of a full top-k result. It is decided when the key settles which side of
// the cutoff the image sorts: DNI strictly after, Invalidate strictly
// before or when either value is NULL or NaN (no order to rely on). A tie
// is undecided: the next key breaks it.
func pastCutoff(nv, lv sqlparse.Value, desc bool) (d Decision, decided bool) {
	if nv.IsNull() || lv.IsNull() || isNaN(nv) || isNaN(lv) {
		return Invalidate, true
	}
	c := nv.Compare(lv)
	if desc {
		c = -c
	}
	switch {
	case c < 0:
		return Invalidate, true
	case c > 0:
		return DNI, true
	}
	return Invalidate, false
}

func isNaN(v sqlparse.Value) bool { return v.Kind == sqlparse.KindFloat && math.IsNaN(v.Float) }

// modifyInfo is the part of viewModify that depends only on the (update
// template, query template) pair, resolved once per pair.
type modifyInfo struct {
	// identifiable: one instance of the modified table, no aggregation or
	// grouping, a single-column primary key that the update binds by
	// equality and the result preserves. Otherwise viewModify invalidates.
	identifiable bool
	key          sqlparse.Operand // the value the update's WHERE binds the key to
	keyOut       int              // result column preserving the key
	from         int              // FROM index of the modified table's instance
	setInWhere   bool             // a SET column is compared by the query's WHERE on that instance
	// order is the longest prefix of the ORDER BY keys whose post-image the
	// update reveals (a SET value, or the key itself) and the result
	// preserves; the walk cannot go past it.
	order []modifyOrderKey
}

type modifyOrderKey struct {
	val  sqlparse.Operand // post-image value
	out  int              // result column preserving the key
	desc bool
}

// modifyInfoFor returns the pair's modifyInfo, memoized on the query's
// queryInfo under the update template's pointer.
func (iv *Invalidator) modifyInfoFor(qi *queryInfo, q, u *template.Template, s *sqlparse.UpdateStmt) *modifyInfo {
	if v, ok := qi.modify.Load(u); ok {
		return v.(*modifyInfo)
	}
	mi := buildModifyInfo(iv.app.Schema, qi, q, s)
	qi.modify.Store(u, mi)
	return mi
}

func buildModifyInfo(sch *schema.Schema, qi *queryInfo, q *template.Template, s *sqlparse.UpdateStmt) *modifyInfo {
	mi := &modifyInfo{}
	if q.HasAggregate || q.HasGroupBy || q.InstanceCount(s.Table) != 1 {
		return mi
	}
	meta := sch.Table(s.Table)
	if meta == nil || len(meta.PrimaryKey) != 1 {
		return mi
	}
	pk := meta.PrimaryKey[0]
	var ok bool
	if mi.keyOut, ok = qi.outIdx[schema.Attr{Table: s.Table, Column: pk}]; !ok {
		return mi // key not preserved: rows not identifiable
	}
	found := false
	for _, p := range s.Where {
		col, other := p.Left, p.Right
		if col.Kind != sqlparse.OpColumn {
			col, other = p.Right, p.Left
		}
		if p.Op == sqlparse.OpEq && col.Kind == sqlparse.OpColumn && col.Col.Column == pk && other.Kind != sqlparse.OpColumn {
			mi.key, found = other, true
		}
	}
	if !found {
		return mi
	}
	for i, f := range qi.sel.From {
		if f.Table == s.Table {
			mi.from = i
		}
	}
	// postImage is the operand holding a column's value after the update,
	// when the update reveals it. The last assignment wins, as in Prepare.
	postImage := func(col string) (sqlparse.Operand, bool) {
		for i := len(s.Set) - 1; i >= 0; i-- {
			if s.Set[i].Column == col {
				return s.Set[i].Value, true
			}
		}
		return mi.key, col == pk
	}
	compared := func(col string) bool {
		for _, p := range qi.instPreds[mi.from] {
			if p.attr.Column == col {
				return true
			}
		}
		for _, jp := range qi.joinPreds {
			if (jp.lFrom == mi.from && jp.lAttr.Column == col) || (jp.rFrom == mi.from && jp.rAttr.Column == col) {
				return true
			}
		}
		return false
	}
	for _, a := range s.Set {
		if compared(a.Column) {
			mi.setInWhere = true
		}
	}
	for _, k := range qi.sel.OrderBy {
		rc, err := qi.res.Resolve(k.Col)
		if err != nil || rc.FromIndex != mi.from {
			break
		}
		val, known := postImage(rc.Attr.Column)
		out, preserved := qi.outIdx[rc.Attr]
		if !known || !preserved {
			break
		}
		mi.order = append(mi.order, modifyOrderKey{val, out, k.Desc})
	}
	mi.identifiable = true
	return mi
}
