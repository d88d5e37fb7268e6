package engine

// The AST-walking interpreter that Compile/Run replaced, kept verbatim as
// the differential oracle (TestPlanMatchesInterpreter,
// FuzzPlanMatchesInterpreter): it re-resolves every operand by name per
// row and materialises every joined tuple, which is slow and is exactly
// what makes it an independent second opinion on a compiled plan. Only
// the entry point and the top-k helpers are renamed (interp*), so that
// they cannot be confused with the production executor's.

import (
	"fmt"
	"slices"
	"sort"

	"dssp/internal/schema"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
)

// interpExecQuery evaluates a select statement with the given parameter
// values by walking its AST.
func interpExecQuery(db *storage.Database, q *sqlparse.SelectStmt, params []sqlparse.Value) (*Result, error) {
	r, err := schema.NewResolver(db.Schema, q.From)
	if err != nil {
		return nil, err
	}
	ex := &queryExec{db: db, q: q, res: r, params: params}
	return ex.run()
}

type queryExec struct {
	db     *storage.Database
	q      *sqlparse.SelectStmt
	res    *schema.Resolver
	params []sqlparse.Value

	scanned int
	joinErr error
}

// tuple is one partial join result: one row per FROM entry (nil until
// bound).
type tuple []storage.Row

func (ex *queryExec) operandValue(o sqlparse.Operand, t tuple) (sqlparse.Value, error) {
	switch o.Kind {
	case sqlparse.OpConst:
		return o.Const, nil
	case sqlparse.OpParam:
		if o.Param >= len(ex.params) {
			return sqlparse.Value{}, fmt.Errorf("engine: statement requires parameter %d but only %d bound", o.Param, len(ex.params))
		}
		return ex.params[o.Param], nil
	case sqlparse.OpColumn:
		rc, err := ex.res.Resolve(o.Col)
		if err != nil {
			return sqlparse.Value{}, err
		}
		if t == nil || t[rc.FromIndex] == nil {
			return sqlparse.Value{}, fmt.Errorf("engine: column %s evaluated before its table is bound", o.Col)
		}
		return t[rc.FromIndex][rc.ColIndex], nil
	default:
		return sqlparse.Value{}, fmt.Errorf("engine: bad operand kind %d", o.Kind)
	}
}

// predHolds evaluates a predicate against a (fully bound enough) tuple
// using SQL semantics: any comparison involving NULL is false.
func (ex *queryExec) predHolds(p sqlparse.Predicate, t tuple) (bool, error) {
	l, err := ex.operandValue(p.Left, t)
	if err != nil {
		return false, err
	}
	r, err := ex.operandValue(p.Right, t)
	if err != nil {
		return false, err
	}
	if l.IsNull() || r.IsNull() {
		return false, nil
	}
	return p.Op.Holds(l.Compare(r)), nil
}

// predTables returns the set of FROM indexes referenced by the predicate.
func (ex *queryExec) predTables(p sqlparse.Predicate) (map[int]bool, error) {
	tabs := make(map[int]bool, 2)
	for _, o := range []sqlparse.Operand{p.Left, p.Right} {
		if o.Kind == sqlparse.OpColumn {
			rc, err := ex.res.Resolve(o.Col)
			if err != nil {
				return nil, err
			}
			tabs[rc.FromIndex] = true
		}
	}
	return tabs, nil
}

func (ex *queryExec) run() (*Result, error) {
	// Partition predicates by the highest FROM index they reference, so
	// each is evaluated as soon as its tables are bound.
	n := len(ex.q.From)
	predsAt := make([][]sqlparse.Predicate, n)
	for _, p := range ex.q.Where {
		tabs, err := ex.predTables(p)
		if err != nil {
			return nil, err
		}
		maxT := 0
		for t := range tabs {
			if t > maxT {
				maxT = t
			}
		}
		predsAt[maxT] = append(predsAt[maxT], p)
	}

	var tuples []tuple
	if err := ex.join(0, make(tuple, n), predsAt, &tuples); err != nil {
		return nil, err
	}

	var out *Result
	var err error
	if ex.q.HasAggregate() || len(ex.q.GroupBy) > 0 {
		out, err = ex.aggregate(tuples)
	} else {
		out, err = ex.plain(tuples)
	}
	if err != nil {
		return nil, err
	}
	if ex.q.Limit >= 0 && out.Len() > ex.q.Limit {
		out.Vals = out.Vals[:ex.q.Limit*len(out.Columns)]
	}
	out.RowsScanned = ex.scanned
	return out, nil
}

// join binds FROM entry i for every partial tuple, applying the predicates
// that become fully bound at i. It uses an index or primary-key access path
// when an equality predicate supplies the value, and a full scan otherwise.
func (ex *queryExec) join(i int, t tuple, predsAt [][]sqlparse.Predicate, out *[]tuple) error {
	if i == len(t) {
		c := make(tuple, len(t))
		copy(c, t)
		*out = append(*out, c)
		return nil
	}
	tab := ex.db.Table(ex.res.Tables()[i].Name)

	// Find an equality predicate `col = v` where col is in table i and v is
	// computable now (constant, parameter, or column of an earlier table).
	type eqPath struct {
		colIdx int
		val    sqlparse.Value
	}
	var paths []eqPath
	for _, p := range predsAt[i] {
		if p.Op != sqlparse.OpEq {
			continue
		}
		for _, o := range [2][2]sqlparse.Operand{{p.Left, p.Right}, {p.Right, p.Left}} {
			col, other := o[0], o[1]
			if col.Kind != sqlparse.OpColumn {
				continue
			}
			rc, err := ex.res.Resolve(col.Col)
			if err != nil {
				return err
			}
			if rc.FromIndex != i {
				continue
			}
			if other.Kind == sqlparse.OpColumn {
				orc, err := ex.res.Resolve(other.Col)
				if err != nil {
					return err
				}
				if orc.FromIndex >= i {
					continue // not bound yet
				}
			}
			v, err := ex.operandValue(other, t)
			if err != nil {
				return err
			}
			paths = append(paths, eqPath{rc.ColIndex, v})
			break
		}
	}

	check := func(row storage.Row) error {
		t[i] = row
		for _, p := range predsAt[i] {
			ok, err := ex.predHolds(p, t)
			if err != nil {
				return err
			}
			if !ok {
				return errPredFailed
			}
		}
		return ex.join(i+1, t, predsAt, out)
	}
	visit := func(row storage.Row) bool {
		ex.scanned++
		if err := check(row); err != nil && err != errPredFailed {
			ex.joinErr = err
			return false
		}
		return true
	}

	defer func() { t[i] = nil }()

	// Prefer a single-column primary-key path, then any secondary index.
	pkIdx := tab.Meta.PKIndexes()
	for _, p := range paths {
		if len(pkIdx) == 1 && p.colIdx == pkIdx[0] {
			if row := tab.LookupPK([]sqlparse.Value{p.val}); row != nil {
				visit(row)
			}
			return ex.takeErr()
		}
	}
	for _, p := range paths {
		if tab.HasIndex(p.colIdx) {
			tab.LookupIndex(p.colIdx, p.val, visit)
			return ex.takeErr()
		}
	}
	tab.Scan(visit)
	return ex.takeErr()
}

// errPredFailed is a sentinel: the current tuple fails a predicate and is
// skipped. queryExec.joinErr carries real errors out of scan callbacks.
var errPredFailed = fmt.Errorf("engine: predicate not satisfied")

func (ex *queryExec) takeErr() error {
	err := ex.joinErr
	ex.joinErr = nil
	return err
}

// plain projects and orders a non-aggregate query.
func (ex *queryExec) plain(tuples []tuple) (*Result, error) {
	if len(ex.q.OrderBy) > 0 {
		keys, err := ex.orderKeysForTuples()
		if err != nil {
			return nil, err
		}
		less := func(a, b tuple) bool {
			for _, k := range keys {
				va := a[k.fromIndex][k.colIndex]
				vb := b[k.fromIndex][k.colIndex]
				c := va.Compare(vb)
				if c != 0 {
					if k.desc {
						return c > 0
					}
					return c < 0
				}
			}
			// Canonical tie-break on full tuple content: results must not
			// depend on physical row order, which index maintenance can
			// permute. Cached results stay byte-identical to re-execution.
			return compareTuples(a, b) < 0
		}
		if ex.q.Limit >= 0 {
			tuples = interpTopK(tuples, ex.q.Limit, less)
		} else {
			sort.SliceStable(tuples, func(a, b int) bool { return less(tuples[a], tuples[b]) })
		}
	}

	cols, proj, err := ex.projection()
	if err != nil {
		return nil, err
	}
	out := &Result{Columns: cols}
	for _, t := range tuples {
		row := make([]sqlparse.Value, len(proj))
		for i, p := range proj {
			row[i] = t[p.fromIndex][p.colIndex]
		}
		out.Vals = append(out.Vals, row...)
	}
	return out, nil
}

// compareTuples orders two joined tuples by their full content.
func compareTuples(a, b tuple) int {
	for i := range a {
		for j := range a[i] {
			if c := a[i][j].Compare(b[i][j]); c != 0 {
				return c
			}
		}
	}
	return 0
}

type colSel struct {
	fromIndex int
	colIndex  int
}

type orderSel struct {
	fromIndex int
	colIndex  int
	desc      bool
}

// projection expands `*` and resolves plain select expressions.
func (ex *queryExec) projection() ([]string, []colSel, error) {
	var cols []string
	var sels []colSel
	for _, e := range ex.q.Select {
		if e.Star {
			for fi, tr := range ex.res.Tables() {
				for ci, c := range tr.Columns {
					cols = append(cols, c.Name)
					sels = append(sels, colSel{fi, ci})
				}
			}
			continue
		}
		rc, err := ex.res.Resolve(e.Col)
		if err != nil {
			return nil, nil, err
		}
		name := e.Col.Column
		if e.Alias != "" {
			name = e.Alias
		}
		cols = append(cols, name)
		sels = append(sels, colSel{rc.FromIndex, rc.ColIndex})
	}
	return cols, sels, nil
}

func (ex *queryExec) orderKeysForTuples() ([]orderSel, error) {
	keys := make([]orderSel, 0, len(ex.q.OrderBy))
	for _, k := range ex.q.OrderBy {
		rc, err := ex.res.Resolve(k.Col)
		if err != nil {
			return nil, err
		}
		keys = append(keys, orderSel{rc.FromIndex, rc.ColIndex, k.Desc})
	}
	return keys, nil
}

// aggregate evaluates aggregation/GROUP BY queries over the joined tuples.
// Output columns follow the SELECT list: group-by columns pass through and
// aggregates are computed per group. Without GROUP BY the whole input is a
// single group (COUNT of an empty input is 0; other aggregates are NULL).
// ORDER BY may reference group-by columns or aggregate aliases.
func (ex *queryExec) aggregate(tuples []tuple) (*Result, error) {
	type outCol struct {
		agg     sqlparse.AggFunc
		star    bool
		sel     colSel // source column (unused for COUNT(*))
		name    string
		isGroup bool // passes through the group key
	}
	var outs []outCol
	groupSels := make([]colSel, 0, len(ex.q.GroupBy))
	for _, g := range ex.q.GroupBy {
		rc, err := ex.res.Resolve(g)
		if err != nil {
			return nil, err
		}
		groupSels = append(groupSels, colSel{rc.FromIndex, rc.ColIndex})
	}
	isGroupCol := func(s colSel) bool {
		for _, g := range groupSels {
			if g == s {
				return true
			}
		}
		return false
	}
	for _, e := range ex.q.Select {
		name := e.Alias
		if name == "" {
			if e.Star {
				name = "count"
			} else {
				name = e.Col.Column
			}
		}
		oc := outCol{agg: e.Agg, star: e.Star, name: name}
		if !e.Star {
			rc, err := ex.res.Resolve(e.Col)
			if err != nil {
				return nil, err
			}
			oc.sel = colSel{rc.FromIndex, rc.ColIndex}
		}
		if e.Agg == sqlparse.AggNone {
			if e.Star {
				return nil, fmt.Errorf("engine: bare * cannot appear in an aggregate query")
			}
			if !isGroupCol(oc.sel) {
				return nil, fmt.Errorf("engine: non-aggregated column %s must appear in GROUP BY", e.Col)
			}
			oc.isGroup = true
		}
		outs = append(outs, oc)
	}

	// Group tuples. Without GROUP BY all tuples form one group keyed "".
	type group struct {
		key    []sqlparse.Value
		tuples []tuple
	}
	order := make([]string, 0)
	groups := make(map[string]*group)
	for _, t := range tuples {
		keyVals := make([]sqlparse.Value, len(groupSels))
		for i, g := range groupSels {
			keyVals[i] = t[g.fromIndex][g.colIndex]
		}
		k := fingerprintVals(keyVals)
		gr, ok := groups[k]
		if !ok {
			gr = &group{key: keyVals}
			groups[k] = gr
			order = append(order, k)
		}
		gr.tuples = append(gr.tuples, t)
	}
	if len(groupSels) == 0 && len(groups) == 0 {
		k := ""
		groups[k] = &group{}
		order = append(order, k)
	}

	out := &Result{}
	for _, oc := range outs {
		out.Columns = append(out.Columns, oc.name)
	}
	var rows [][]sqlparse.Value
	for _, k := range order {
		gr := groups[k]
		row := make([]sqlparse.Value, len(outs))
		for i, oc := range outs {
			if oc.isGroup {
				row[i] = gr.tuples[0][oc.sel.fromIndex][oc.sel.colIndex]
				continue
			}
			row[i] = computeAgg(oc.agg, oc.star, oc.sel, gr.tuples)
		}
		rows = append(rows, row)
	}

	if len(ex.q.OrderBy) > 0 {
		keys, err := ex.aggOrderKeys(out)
		if err != nil {
			return nil, err
		}
		less := func(a, b []sqlparse.Value) bool {
			for _, k := range keys {
				c := a[k.col].Compare(b[k.col])
				if c != 0 {
					if k.desc {
						return c > 0
					}
					return c < 0
				}
			}
			// Canonical tie-break on the full output row (see plain()).
			for i := range a {
				if c := a[i].Compare(b[i]); c != 0 {
					return c < 0
				}
			}
			return false
		}
		if ex.q.Limit >= 0 {
			rows = interpTopK(rows, ex.q.Limit, less)
		} else {
			sort.SliceStable(rows, func(a, b int) bool { return less(rows[a], rows[b]) })
		}
	}
	out.Vals = slices.Concat(rows...)
	return out, nil
}

// ColumnIndex returns the ordinal of the named output column, or -1.
func (r *Result) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

type aggOrderKey struct {
	col  int
	desc bool
}

// aggOrderKeys resolves ORDER BY keys of an aggregate query against the
// output columns (group-by column names or aggregate aliases).
func (ex *queryExec) aggOrderKeys(out *Result) ([]aggOrderKey, error) {
	keys := make([]aggOrderKey, 0, len(ex.q.OrderBy))
	for _, k := range ex.q.OrderBy {
		ci := out.ColumnIndex(k.Col.Column)
		if ci < 0 {
			return nil, fmt.Errorf("engine: ORDER BY %s must name an output column of the aggregate query", k.Col)
		}
		keys = append(keys, aggOrderKey{ci, k.Desc})
	}
	return keys, nil
}

func computeAgg(agg sqlparse.AggFunc, star bool, sel colSel, tuples []tuple) sqlparse.Value {
	if agg == sqlparse.AggCount {
		if star {
			return sqlparse.IntVal(int64(len(tuples)))
		}
		n := int64(0)
		for _, t := range tuples {
			if !t[sel.fromIndex][sel.colIndex].IsNull() {
				n++
			}
		}
		return sqlparse.IntVal(n)
	}
	var acc sqlparse.Value // NULL until a non-null input is seen
	n := int64(0)
	var sum float64
	allInt := true
	for _, t := range tuples {
		v := t[sel.fromIndex][sel.colIndex]
		if v.IsNull() {
			continue
		}
		n++
		switch agg {
		case sqlparse.AggMin:
			if acc.IsNull() || v.Compare(acc) < 0 {
				acc = v
			}
		case sqlparse.AggMax:
			if acc.IsNull() || v.Compare(acc) > 0 {
				acc = v
			}
		case sqlparse.AggSum, sqlparse.AggAvg:
			if v.Kind != sqlparse.KindInt {
				allInt = false
			}
			sum += v.AsFloat()
			acc = sqlparse.IntVal(0) // mark non-empty
		}
	}
	switch agg {
	case sqlparse.AggMin, sqlparse.AggMax:
		return acc
	case sqlparse.AggSum:
		if n == 0 {
			return sqlparse.Null()
		}
		if allInt {
			return sqlparse.IntVal(int64(sum))
		}
		return sqlparse.FloatVal(sum)
	case sqlparse.AggAvg:
		if n == 0 {
			return sqlparse.Null()
		}
		return sqlparse.FloatVal(sum / float64(n))
	default:
		return sqlparse.Null()
	}
}

func fingerprintVals(vals []sqlparse.Value) string {
	r := Result{Columns: make([]string, len(vals)), Vals: vals}
	return r.Fingerprint(true)
}

// interpTopK returns the k smallest elements under less, in ascending order —
// what ORDER BY … LIMIT k needs — without sorting the rest: a bounded
// max-heap of the best k candidates makes selection O(n log k) instead of
// O(n log n), and the n−k losers are never reordered or retained. The
// paper's top-k templates ("newest 10 comments", "top 50 best sellers")
// scan many base rows to keep a handful, which is exactly this shape.
//
// less must be a strict total order on row *content* (the engine's
// comparators tie-break on the full row), so elements that compare equal
// are identical and the selection is deterministic: the result is
// byte-for-byte the prefix a stable full sort would have produced.
func interpTopK[T any](items []T, k int, less func(a, b T) bool) []T {
	if k <= 0 {
		return nil
	}
	if k >= len(items) {
		sort.SliceStable(items, func(a, b int) bool { return less(items[a], items[b]) })
		return items
	}
	h := items[:k:k]
	for i := k / 2; i >= 0; i-- {
		interpSiftDown(h, i, less)
	}
	for _, it := range items[k:] {
		if less(it, h[0]) {
			h[0] = it
			interpSiftDown(h, 0, less)
		}
	}
	// Heap-sort the survivors ascending: repeatedly swap the current
	// maximum to the end of the shrinking heap.
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		interpSiftDown(h[:end], 0, less)
	}
	return h
}

// interpSiftDown restores the max-heap property at index i of h.
func interpSiftDown[T any](h []T, i int, less func(a, b T) bool) {
	for {
		big := i
		if l := 2*i + 1; l < len(h) && less(h[big], h[l]) {
			big = l
		}
		if r := 2*i + 2; r < len(h) && less(h[big], h[r]) {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}
