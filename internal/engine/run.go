package engine

import (
	"fmt"
	"slices"
	"sync"

	"dssp/internal/sqlparse"
	"dssp/internal/storage"
)

// stackLevels is how many FROM entries a run binds without allocating its
// tuple; the applications' widest join has three.
const stackLevels = 4

// exec is the scratch of one Run: the partial tuple, the tables it binds
// and whichever sink the plan's shape feeds. The plan itself is read-only.
//
// Scratch is recycled: finished runs leave their execs in execPool and the
// next Run — of any plan — takes one over, its buffers already grown to the
// largest job it has done. So a run allocates only what it returns. Two
// rules keep that invisible. A Result never points into an exec — its rows
// are copied out into arrays made for it — so nothing pooled is reachable
// from a result. And release clears every reference a run took (plan,
// tables, storage rows, parameters, values) before the exec goes back, so
// an idle exec pins no row a later update deletes and shows the next run
// nothing of the last.
type exec struct {
	plan    *Plan
	params  []sqlparse.Value
	tabs    []*storage.Table
	tup     []storage.Row // one row per FROM entry, bound left to right
	scanned int

	// Plain unordered queries project straight into vals, nrows rows of
	// len(plan.proj) values each.
	vals  []sqlparse.Value
	nrows int
	ord   orderedSink   // ORDER BY over joined tuples
	agg   aggSink       // aggregate/GROUP BY
	hits  []storage.Row // the rows a deletion or modification changes

	tabArr [stackLevels]*storage.Table
	tupArr [stackLevels]storage.Row
	keyArr [64]byte // group keys are a few integers or a short string
}

// execPool is one pool for every plan rather than one per plan: the home
// server's templates then share a few execs grown to the largest of them
// instead of each keeping its own, a statement run once through ExecQuery
// finds warm scratch like any other, and a Plan stays plain immutable data.
var execPool = sync.Pool{New: func() any {
	x := new(exec)
	x.agg.keyBuf = x.keyArr[:0]
	return x
}}

// release returns x to the pool, holding no reference to anything the run
// read or produced. What it costs follows what the run used, not what the
// buffers have grown to.
func (x *exec) release() {
	clear(x.tabs)
	clear(x.tup)
	clear(x.vals)
	clear(x.hits)
	x.plan, x.params, x.tabs, x.tup = nil, nil, nil, nil
	x.vals, x.hits, x.scanned, x.nrows = x.vals[:0], x.hits[:0], 0, 0
	x.ord.reset()
	x.agg.reset()
	execPool.Put(x)
}

// Run executes the plan over db, which must have the schema the plan was
// compiled against, with exactly NumParams parameter values. The caller
// must exclude concurrent writers to db for the duration of the call (the
// home server holds its read lock); the returned Result owns its rows.
func (p *Plan) Run(db *storage.Database, params []sqlparse.Value) (*Result, error) {
	out := new(Result)
	if err := p.RunInto(db, params, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RunInto is Run into a result the caller holds, whose Vals array it
// reuses when that is large enough for the answer; a new result's gets one
// of exactly the answer's size. So a caller that runs into the same result
// over and over — the home server, for a result it seals before its next
// run — allocates no result at all. out is overwritten only when the run
// succeeds.
func (p *Plan) RunInto(db *storage.Database, params []sqlparse.Value, out *Result) error {
	x := execPool.Get().(*exec)
	defer x.release()
	return x.run(p, db, params, out)
}

// run is RunInto on scratch x, which the caller releases whatever happens
// here.
func (x *exec) run(p *Plan, db *storage.Database, params []sqlparse.Value, out *Result) error {
	if err := x.start(p, db, params); err != nil {
		return err
	}
	x.ord.width, x.ord.keep, x.ord.order = len(p.levels), p.limit, p.order
	if len(p.outs) > 0 && len(p.groupBy) == 0 {
		x.agg.newGroup(len(p.outs))
	}

	x.join(0)

	vals := out.Vals
	switch {
	case len(p.outs) > 0:
		vals = x.agg.rows(p, vals)
	case len(p.order) > 0:
		vals = x.orderedRows(vals)
	default:
		vals = sized(vals, len(x.vals))
		copy(vals, x.vals)
	}
	*out = Result{Columns: p.columns, Vals: vals, RowsScanned: x.scanned}
	return nil
}

// start binds x to a run of p: its parameters and the tables of its
// levels. It refuses a database of another schema and a parameter list of
// the wrong length.
func (x *exec) start(p *Plan, db *storage.Database, params []sqlparse.Value) error {
	if db.Schema != p.schema {
		return fmt.Errorf("engine: plan run against a database of another schema")
	}
	if len(params) != p.NumParams {
		return fmt.Errorf("engine: statement requires parameter count %d but %d bound", p.NumParams, len(params))
	}
	x.plan, x.params = p, params
	if n := len(p.levels); n <= stackLevels {
		x.tabs, x.tup = x.tabArr[:n], x.tupArr[:n]
	} else {
		x.tabs, x.tup = make([]*storage.Table, n), make([]storage.Row, n)
	}
	for i := range p.levels {
		if x.tabs[i] = db.Table(p.levels[i].table); x.tabs[i] == nil {
			return fmt.Errorf("engine: database has no table %q", p.levels[i].table)
		}
	}
	return nil
}

// sized returns n values to write a result into: vals' own array when it
// holds n, else a new one of exactly n. A result of no values keeps vals,
// cut to nothing.
func sized(vals []sqlparse.Value, n int) []sqlparse.Value {
	if cap(vals) >= n {
		return vals[:n]
	}
	return make([]sqlparse.Value, n)
}

// join binds FROM entry i for the current partial tuple, visiting every
// row its access path yields: the primary-key probe when the plan has
// one, else the first equality path whose column this database indexes,
// else a scan.
func (x *exec) join(i int) {
	if i == len(x.tup) {
		x.emit()
		return
	}
	lv, tab := &x.plan.levels[i], x.tabs[i]
	if lv.hasPK {
		if row := tab.LookupPK([]sqlparse.Value{x.value(lv.pk)}); row != nil {
			x.visit(i, row)
		}
		return
	}
	visit := func(row storage.Row) bool {
		x.visit(i, row)
		return true
	}
	for _, path := range lv.eq {
		if tab.HasIndex(path.col) {
			tab.LookupIndex(path.col, x.value(path.val), visit)
			return
		}
	}
	tab.Scan(visit)
}

// visit binds row at level i and, if every predicate that just became
// bound holds, descends.
func (x *exec) visit(i int, row storage.Row) {
	x.scanned++
	x.tup[i] = row
	preds := x.plan.levels[i].preds
	for k := range preds {
		if !x.holds(&preds[k]) {
			return
		}
	}
	x.join(i + 1)
}

// value evaluates an operand against the current partial tuple. Compile
// guarantees that a column operand's level is bound and a parameter's
// ordinal is in range.
func (x *exec) value(o operand) sqlparse.Value {
	if o.kind == sqlparse.OpColumn {
		return x.tup[o.col.from][o.col.col]
	}
	return o.bind(x.params)
}

// holds evaluates a predicate under SQL semantics: any comparison
// involving NULL is false.
func (x *exec) holds(p *pred) bool {
	l, r := x.value(p.left), x.value(p.right)
	if l.IsNull() || r.IsNull() {
		return false
	}
	return p.op.Holds(l.Compare(r))
}

// emit hands one fully bound tuple to the plan's sink.
func (x *exec) emit() {
	p := x.plan
	switch {
	case p.collect:
		x.hits = append(x.hits, x.tup[0])
	case len(p.outs) > 0:
		x.agg.add(p, x.tup)
	case len(p.order) > 0:
		x.ord.add(x.tup)
	case p.limit < 0 || x.nrows < p.limit:
		// Past the limit the join still runs to completion: RowsScanned
		// is part of the result.
		x.vals = slices.Grow(x.vals, len(p.proj))
		for _, c := range p.proj {
			x.vals = append(x.vals, x.tup[c.from][c.col])
		}
		x.nrows++
	}
}

// orderedRows projects the ordered sink's surviving tuples, in result
// order, into vals (sized).
func (x *exec) orderedRows(vals []sqlparse.Value) []sqlparse.Value {
	slots := x.ord.sorted()
	vals = sized(vals, len(slots)*len(x.plan.proj))
	i := 0
	for _, slot := range slots {
		tup := x.ord.tuple(slot)
		for _, c := range x.plan.proj {
			vals[i] = tup[c.from][c.col]
			i++
		}
	}
	return vals
}

// orderedSink collects the joined tuples of an ORDER BY query — all of
// them, or with LIMIT k only the k that sort first, selected exactly as
// topK would (a max-heap of the survivors once more than k have been
// seen). Tuples live flattened in one array, width rows each, and are
// ordered through their slot numbers.
type orderedSink struct {
	width int // rows per tuple
	keep  int // LIMIT, -1 for all
	order []orderKey

	tuples []storage.Row
	slots  []int32
	heaped bool
	spare  int32 // slot the next candidate is staged in, once heaped
}

func (s *orderedSink) tuple(slot int32) []storage.Row {
	return s.tuples[int(slot)*s.width:][:s.width]
}

func (s *orderedSink) add(tup []storage.Row) {
	switch {
	case s.keep == 0:
		return
	case s.keep < 0 || len(s.slots) < s.keep:
		s.slots = append(s.slots, int32(len(s.slots)))
		s.tuples = append(s.tuples, tup...)
		return
	case !s.heaped:
		heapify(s.slots, s.compare)
		s.heaped = true
		s.spare = int32(len(s.slots))
		s.tuples = append(s.tuples, tup...)
	default:
		copy(s.tuple(s.spare), tup)
	}
	if s.compare(s.spare, s.slots[0]) < 0 {
		s.slots[0], s.spare = s.spare, s.slots[0]
		siftDown(s.slots, 0, s.compare)
	}
}

// reset empties the sink for the next run, dropping its storage rows.
func (s *orderedSink) reset() {
	clear(s.tuples)
	s.tuples, s.slots, s.heaped, s.order = s.tuples[:0], s.slots[:0], false, nil
}

// sorted returns the surviving slots in result order.
func (s *orderedSink) sorted() []int32 {
	if s.heaped {
		heapSort(s.slots, s.compare)
	} else {
		slices.SortStableFunc(s.slots, s.compare)
	}
	return s.slots
}

// compare orders two tuples by the ORDER BY keys and then by their full
// content: results must not depend on physical row order, which index
// maintenance can permute, so that a cached result stays byte-identical
// to re-execution.
func (s *orderedSink) compare(a, b int32) int {
	ta, tb := s.tuple(a), s.tuple(b)
	for _, k := range s.order {
		if c := ta[k.from][k.col].Compare(tb[k.from][k.col]); c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	for i := range ta {
		for j := range ta[i] {
			if c := ta[i][j].Compare(tb[i][j]); c != 0 {
				return c
			}
		}
	}
	return 0
}
