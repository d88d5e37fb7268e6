package invalidate

import (
	"dssp/internal/engine"
	"dssp/internal/schema"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

// view is the minimal view-inspection strategy beyond the statement level:
// it inspects the cached result itself. It is invoked only after statement
// inspection has decided to invalidate, and may overturn that decision
// when the result proves the update cannot change it.
func (p *PairPlan) view(pu *PreparedUpdate, params []sqlparse.Value, res *engine.Result) Decision {
	if res == nil {
		return Invalidate
	}
	switch p.kind {
	case kindDelete:
		return p.viewDelete(pu.u.Params, res)
	case kindInsert:
		return p.viewInsert(pu.row, res)
	case kindModify:
		return p.viewModify(pu, params, res)
	default:
		return Invalidate
	}
}

// viewDelete: SPJ results are monotone in deletions — a deletion changes
// the cached result only if it removes a contributing base row, and every
// contributing row's relevant attribute values appear in the result when
// they are preserved. If the deletion predicate can be evaluated over the
// preserved attributes and no result row satisfies it, the result is
// untouched. This also holds under ORDER BY and LIMIT: a row that sorts
// past the cutoff does not contribute, so removing it changes nothing,
// and a contributing row is in the result, where the check finds it.
func (p *PairPlan) viewDelete(params []sqlparse.Value, res *engine.Result) Decision {
	if !p.del.ok {
		return Invalidate
	}
	for r := range res.Len() {
		row, matches := res.Row(r), true
		for i := range p.del.preds {
			dp := &p.del.preds[i]
			lv, ok := dp.l.value(row, params)
			if !ok {
				return Invalidate
			}
			rv, ok := dp.r.value(row, params)
			if !ok {
				return Invalidate
			}
			if lv.IsNull() || rv.IsNull() || !dp.op.Holds(lv.Compare(rv)) {
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

// deleteView is what viewDelete resolves from the pair alone: whether the
// query is a plain SPJ over one instance of the deleted table (ok), and
// each of the deletion's predicates with its column operands mapped to the
// result columns preserving them.
type deleteView struct {
	ok    bool
	preds []deletePred
}

type deletePred struct {
	op   sqlparse.CompareOp
	l, r viewOperand
}

// viewOperand is one side of a deletion predicate read against a result
// row: a column of the deleted table, at result column out (-1: not
// preserved), or a parameter or constant of the deletion.
type viewOperand struct {
	col bool
	out int
	val sqlparse.Operand
}

func (o *viewOperand) value(row, params []sqlparse.Value) (sqlparse.Value, bool) {
	if !o.col {
		return bindVal(o.val, params)
	}
	if o.out < 0 {
		return sqlparse.Value{}, false
	}
	return row[o.out], true
}

func compileDeleteView(qi *queryInfo, q *template.Template, s *sqlparse.DeleteStmt) deleteView {
	if q.HasAggregate || q.InstanceCount(s.Table) != 1 {
		return deleteView{}
	}
	operand := func(o sqlparse.Operand) viewOperand {
		if o.Kind != sqlparse.OpColumn {
			return viewOperand{val: o}
		}
		out, ok := qi.outIdx[schema.Attr{Table: s.Table, Column: o.Col.Column}]
		if !ok {
			out = -1
		}
		return viewOperand{col: true, out: out}
	}
	dv := deleteView{ok: true}
	for _, pr := range s.Where {
		dv.preds = append(dv.preds, deletePred{pr.Op, operand(pr.Left), operand(pr.Right)})
	}
	return dv
}

// viewInsert handles the two §4.4 cases where view inspection beats
// statement inspection for insertions: top-k queries and MIN/MAX
// aggregates over a single relation. The inserted row is fully known and —
// for single-relation queries — already known to satisfy the selection
// predicates (statement inspection would otherwise have excluded it).
func (p *PairPlan) viewInsert(row []sqlparse.Value, res *engine.Result) Decision {
	if row == nil {
		return Invalidate
	}
	switch iv := &p.ins; iv.mode {
	case insertExtremum:
		// Compare the inserted value against the cached extremum (§4.4
		// example b).
		if res.Len() != 1 {
			return Invalidate
		}
		cached := res.Vals[0]
		if cached.IsNull() {
			return Invalidate // empty input: the new row defines the extremum
		}
		nv := row[iv.col]
		if nv.IsNull() {
			return DNI // NULLs do not participate in aggregates
		}
		if iv.agg == sqlparse.AggMax && nv.Compare(cached) <= 0 {
			return DNI
		}
		if iv.agg == sqlparse.AggMin && nv.Compare(cached) >= 0 {
			return DNI
		}
		return Invalidate
	case insertTopK:
		// If the result already holds k rows and the new row sorts
		// strictly after the last cached row, the first k rows are
		// unchanged. Full-key ties are conservative: the engine breaks ties
		// on tuple content, which the view may not preserve, so the new
		// row could sort either side of the cutoff.
		if res.Len() < p.limit {
			return Invalidate // room below the cutoff: the row enters
		}
		if res.Len() == 0 {
			return Invalidate // LIMIT 0 never caches anything useful
		}
		last := res.Row(res.Len() - 1)
		for _, k := range iv.keys {
			if d, decided := pastCutoff(row[k.col], last[k.out], k.desc); decided {
				return d
			}
			// Equal on this key: compare the next one.
		}
		return Invalidate // tied on every key, or the next key is not preserved
	default:
		return Invalidate
	}
}

// insertView is what viewInsert resolves from the pair alone.
type insertView struct {
	mode insertMode
	agg  sqlparse.AggFunc // insertExtremum: AggMin or AggMax
	col  int              // insertExtremum: the aggregated column in the inserted row
	// insertTopK: the ORDER BY keys up to the first one the result does
	// not preserve, past which the walk cannot go.
	keys []insertKey
}

type insertMode uint8

const (
	insertNone     insertMode = iota // neither case: invalidate
	insertExtremum                   // SELECT MIN(c) or MAX(c) over the inserted table alone
	insertTopK                       // ORDER BY … LIMIT k over the inserted table alone
)

type insertKey struct {
	col  int // the key's column in the inserted row
	out  int // the result column preserving it
	desc bool
}

func compileInsertView(sch *schema.Schema, qi *queryInfo, q *template.Template, s *sqlparse.InsertStmt) insertView {
	meta := sch.Table(s.Table)
	if len(qi.sel.From) != 1 || qi.sel.From[0].Table != s.Table || q.HasGroupBy || meta == nil {
		return insertView{}
	}
	if q.HasAggregate {
		if len(qi.sel.Select) != 1 {
			return insertView{}
		}
		e := qi.sel.Select[0]
		if e.Star || (e.Agg != sqlparse.AggMin && e.Agg != sqlparse.AggMax) {
			return insertView{}
		}
		ci := meta.ColumnIndex(e.Col.Column)
		if ci < 0 {
			return insertView{}
		}
		return insertView{mode: insertExtremum, agg: e.Agg, col: ci}
	}
	if qi.sel.Limit < 0 || len(qi.sel.OrderBy) == 0 {
		return insertView{}
	}
	iv := insertView{mode: insertTopK}
	for _, k := range qi.sel.OrderBy {
		ci := meta.ColumnIndex(k.Col.Column)
		oi, ok := qi.outIdx[schema.Attr{Table: s.Table, Column: k.Col.Column}]
		if ci < 0 || !ok {
			break // order key not preserved in the result
		}
		iv.keys = append(iv.keys, insertKey{ci, oi, k.Desc})
	}
	return iv
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
// one key.
func (p *PairPlan) viewModify(pu *PreparedUpdate, params []sqlparse.Value, res *engine.Result) Decision {
	mi := p.mod
	if !mi.identifiable {
		return Invalidate
	}
	key, ok := bindVal(mi.key, pu.u.Params)
	if !ok {
		return Invalidate
	}
	n := res.Len()
	for i := range n {
		if res.Row(i)[mi.keyOut].Compare(key) == 0 {
			return Invalidate // the modified row is in the cached result
		}
	}
	bound := p.limit >= 0 && n >= p.limit
	if mi.setInWhere {
		// The modified table's one instance is the plan's only one.
		if pu.consOK && !p.insts[0].sat(&pu.after, after, params) {
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
	last := res.Row(n - 1)
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
// before or when either value is NULL (no order to rely on). A tie
// is undecided: the next key breaks it.
func pastCutoff(nv, lv sqlparse.Value, desc bool) (d Decision, decided bool) {
	if nv.IsNull() || lv.IsNull() {
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

// modifyInfo is what viewModify resolves from the pair alone.
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
