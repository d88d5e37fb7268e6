package invalidate

import (
	"dssp/internal/sqlparse"
)

// This file hoists the per-update half of a strategy decision out of the
// per-cached-view loop. A batch invalidation pass evaluates one update
// against every cached entry of an affected bucket — hundreds of decisions
// with the same UpdateInstance — and the original implementation
// re-parsed the update's WHERE clause into freshly allocated constraint
// maps on every call. Prepare does that work once; DecidePrepared then
// runs allocation-free per entry, using slice-backed constraint sets
// (column counts are tiny, so linear search beats a map and needs no heap)
// and pooled merge scratch.

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

// sat reports whether every column's constraints are satisfiable.
func (cs *consSet) sat() bool {
	for i := range cs.cols {
		if !cs.cols[i].rc.sat() {
			return false
		}
	}
	return true
}

// PreparedUpdate carries an update instance together with its prepared
// inspection state: the parsed WHERE range constraints, the modification
// post-image, and the materialized inserted row. It is immutable after
// Prepare and safe to share across goroutines deciding different entries.
type PreparedUpdate struct {
	u      UpdateInstance
	row    []sqlparse.Value // insertions: the materialized new row (nil if malformed)
	consOK bool             // deletions/modifications: WHERE parsed into before
	before consSet          // deletions/modifications: WHERE constraints
	after  consSet          // modifications: post-image constraints
}

// Update returns the instance the prepared update was built from.
func (pu *PreparedUpdate) Update() UpdateInstance { return pu.u }

// Prepare computes the per-update inspection state once, so that repeated
// DecidePrepared calls against many cached views do no per-entry parsing
// or allocation.
func (iv *Invalidator) Prepare(u UpdateInstance) *PreparedUpdate {
	pu := &PreparedUpdate{u: u}
	switch s := u.Template.Stmt.(type) {
	case *sqlparse.InsertStmt:
		pu.row = insertedRow(iv.app.Schema, s, u.Params)
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
	return pu
}

// DecidePrepared returns the decision of the given strategy class for a
// prepared update against a cached view; it is the package's one decision
// entry. Information above the class's level is ignored even if present.
// The per-entry path allocates nothing.
func (iv *Invalidator) DecidePrepared(class Class, pu *PreparedUpdate, q CachedView) Decision {
	switch class {
	case Blind:
		return Invalidate
	case TemplateInspection:
		return iv.templateDecide(pu.u.Template, q.Template)
	case StatementInspection:
		if iv.templateDecide(pu.u.Template, q.Template) == DNI {
			return DNI
		}
		return iv.statementDecide(pu, q)
	case ViewInspection:
		if iv.templateDecide(pu.u.Template, q.Template) == DNI {
			return DNI
		}
		if iv.statementDecide(pu, q) == DNI {
			return DNI
		}
		return iv.viewDecide(pu, q)
	default:
		return Invalidate
	}
}

// getScratch and putScratch pool consSet merge scratch across decisions
// (the pool lives on the invalidator so its arenas die with it).
func (iv *Invalidator) getScratch() *consSet {
	if v := iv.satScratch.Get(); v != nil {
		return v.(*consSet)
	}
	return &consSet{}
}

func (iv *Invalidator) putScratch(cs *consSet) { iv.satScratch.Put(cs) }
