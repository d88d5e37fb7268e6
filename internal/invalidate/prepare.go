package invalidate

import (
	"dssp/internal/engine"
	"dssp/internal/sqlparse"
)

// This file hoists the per-update half of a strategy decision out of the
// per-cached-view loop. A batch invalidation pass evaluates one update
// against every cached entry of an affected bucket — hundreds of decisions
// with the same UpdateInstance — and the original implementation
// re-parsed the update's WHERE clause into freshly allocated constraint
// maps on every call. Prepare does that work once, into slice-backed
// constraint sets (column counts are tiny, so linear search beats a map
// and needs no heap); the per-pair half lives in the pair's plan
// (plan.go), and a decision combines the two without allocating.

// consSet is a set of per-column range constraints backed by a small
// slice: statements constrain a handful of columns at most, so linear
// search is faster than a map and, crucially for the invalidation hot
// loop, growing an existing set allocates nothing once capacity exists.
type consSet struct {
	cols []colCons
}

type colCons struct {
	col string
	rc  rangeCons
}

// get returns the constraint accumulator for col, adding an empty one if
// absent.
func (cs *consSet) get(col string) *rangeCons {
	for i := range cs.cols {
		if cs.cols[i].col == col {
			return &cs.cols[i].rc
		}
	}
	cs.cols = append(cs.cols, colCons{col: col})
	return &cs.cols[len(cs.cols)-1].rc
}

// copyFrom makes cs an independent copy of src, reusing cs's backing
// array. rangeCons is a pure value type, so the element copy is deep.
func (cs *consSet) copyFrom(src *consSet) {
	cs.cols = append(cs.cols[:0], src.cols...)
}

func (cs *consSet) reset() { cs.cols = cs.cols[:0] }

// PreparedUpdate carries an update instance together with its prepared
// inspection state: the parsed WHERE range constraints, the modification
// post-image, and the materialized inserted row. It is immutable between
// one Prepare (or PrepareInto) and the next, and safe to share across
// goroutines deciding different entries in between.
type PreparedUpdate struct {
	u      UpdateInstance
	row    []sqlparse.Value // insertions: the materialized new row (nil if malformed)
	consOK bool             // deletions/modifications: WHERE parsed into before
	before consSet          // deletions/modifications: WHERE constraints
	after  consSet          // modifications: post-image constraints

	rowBuf []sqlparse.Value // row's backing array, kept across PrepareInto
}

// Update returns the instance the prepared update was built from.
func (pu *PreparedUpdate) Update() UpdateInstance { return pu.u }

// Prepare computes the per-update inspection state once, so that repeated
// DecidePrepared calls against many cached views do no per-entry parsing
// or allocation.
func (iv *Invalidator) Prepare(u UpdateInstance) *PreparedUpdate {
	pu := &PreparedUpdate{}
	iv.PrepareInto(pu, u)
	return pu
}

// PrepareInto is Prepare into a caller-owned PreparedUpdate: it resets pu
// for u, reusing the backing arrays of its constraint sets and of its row,
// so a pu kept across updates makes preparation allocation-free once they
// have grown to the application's widest statement.
func (iv *Invalidator) PrepareInto(pu *PreparedUpdate, u UpdateInstance) {
	pu.u, pu.row, pu.consOK = u, nil, false
	pu.before.reset()
	pu.after.reset()
	switch s := u.Template.Stmt.(type) {
	case *sqlparse.InsertStmt:
		pu.row = iv.insertedRow(&pu.rowBuf, u)
	case *sqlparse.DeleteStmt:
		pu.consOK = updateConsInto(&pu.before, s.Where, u.Params)
	case *sqlparse.UpdateStmt:
		pu.consOK = updateConsInto(&pu.before, s.Where, u.Params)
		if pu.consOK {
			pu.after.copyFrom(&pu.before)
			for _, a := range s.Set {
				v, ok := bindVal(a.Value, u.Params)
				if !ok {
					pu.consOK = false
					break
				}
				// SET overrides any prior knowledge of the column.
				rc := pu.after.get(a.Column)
				*rc = rangeCons{}
				rc.add(sqlparse.OpEq, v)
			}
		}
	}
}

// insertedRow builds in *buf the row insertion u adds, through the
// engine's compiled insertion, or returns nil — the conservative
// Invalidate — when u does not compile or bind. A template apart from the
// application, as tests build them, is compiled on the spot. An insertion
// whose parameters the node does not see (template or blind exposure)
// binds none, and is turned away by its count, before InsertedRow builds
// an error to say so.
func (iv *Invalidator) insertedRow(buf *[]sqlparse.Value, u UpdateInstance) []sqlparse.Value {
	ins, ok := iv.inserts[u.Template]
	if !ok {
		ins, _ = engine.CompileUpdate(iv.app.Schema, u.Template.Stmt)
	}
	if ins == nil || len(u.Params) != ins.NumParams() {
		return nil
	}
	*buf, _ = ins.InsertedRow((*buf)[:0], u.Params) // the count is checked above
	return *buf
}

// DecidePrepared returns the decision of the given strategy class for a
// prepared update against a cached view; it is the package's one decision
// entry: the pair's plan (Plan), then its per-entry evaluation
// (PairPlan.Decide), which is all the cache's walk repeats per entry once
// it has resolved the plan for a bucket. Information above the class's
// level is ignored even if present. It allocates nothing for templates of
// the invalidator's application.
func (iv *Invalidator) DecidePrepared(class Class, pu *PreparedUpdate, q CachedView) Decision {
	return iv.Plan(pu.u.Template, q.Template).Decide(class, pu, q.Params, q.Result)
}
