package invalidate

import (
	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

// When an update binds a column by equality and the query compares it
// with a parameter by equality, statement inspection refutes every entry
// whose parameter differs before it reads anything else. The cache
// indexes each bucket on one such parameter per query template (Slot),
// and a pair's plan names the keys a prepared update can affect there
// (PairPlan.Probe). The key is sqlparse.Key, which follows the
// invalidator's own equality, Value.Compare.

// Slot is where the cache indexes a query template's entries: Pos is the
// parameter the first `col = ?` of its WHERE clause binds (-1: none, and
// the template's buckets are not indexed), and Need the parameter count
// an entry must have for every predicate of the clause to bind. An entry
// with fewer parameters is always a candidate.
type Slot struct {
	Pos, Need int
}

// SlotOf returns the index slot of a query template. It depends on the
// template alone, so the cache's index and every pair plan compiled over
// the template agree on it.
func SlotOf(q *template.Template) Slot {
	sl := Slot{Pos: -1}
	sel, ok := q.Stmt.(*sqlparse.SelectStmt)
	if !ok {
		return sl
	}
	for _, p := range sel.Where {
		for _, o := range [2]sqlparse.Operand{p.Left, p.Right} {
			if o.Kind == sqlparse.OpParam {
				sl.Need = max(sl.Need, o.Param+1)
			}
		}
		if sl.Pos < 0 && p.Op == sqlparse.OpEq {
			switch {
			case p.Left.Kind == sqlparse.OpColumn && p.Right.Kind == sqlparse.OpParam:
				sl.Pos = p.Right.Param
			case p.Right.Kind == sqlparse.OpColumn && p.Left.Kind == sqlparse.OpParam:
				sl.Pos = p.Left.Param
			}
		}
	}
	return sl
}

// probeKind is how a plan reads the keys a prepared update can affect.
type probeKind uint8

const (
	probeScan   probeKind = iota // every entry is a candidate
	probeInsert                  // the inserted row's value at column probeAt
	probeWhere                   // the update's equality on group probeAt of the plan's one instance
)

// compileProbe picks how the plan probes its query template's index at
// slot. A pair probes only when every entry whose parameter at sl.Pos
// differs from the keys is refuted by statement inspection through that
// one predicate, whatever its other parameters: the query has one FROM
// instance over the updated table, every operand binds, an insertion is
// not FK-shielded, and the instance compares the slot's column by
// `col = ?` — for a deletion or modification, as the first predicate of
// that column's group, whose column the update's WHERE clause constrains.
// Everything else scans: ranges, a self-join, and the template and blind
// classes, which the walk never probes.
func (p *PairPlan) compileProbe(sl Slot) {
	if p.tmpl == DNI || sl.Pos < 0 || len(p.insts) != 1 || p.insts[0].unbound {
		return
	}
	in := &p.insts[0]
	isSlot := func(pr instPred) bool {
		return pr.op == sqlparse.OpEq && pr.val.Kind == sqlparse.OpParam && pr.val.Param == sl.Pos
	}
	switch p.kind {
	case kindInsert:
		if in.shielded {
			return
		}
		for _, pr := range in.preds {
			if isSlot(pr) {
				p.probe, p.probeAt = probeInsert, pr.colIdx
				return
			}
		}
	case kindDelete, kindModify:
		for gi, g := range in.groups {
			if isSlot(g.preds[0]) && g.idx[before] >= 0 {
				p.probe, p.probeAt = probeWhere, gi
				return
			}
		}
	}
}

// Probe returns the keys, at the query template's slot, of the entries a
// prepared update of the plan's update template can affect under
// statement or view inspection: n of them, at most two, with ok false
// when the plan or this update's values call for a scan. An entry whose
// key at the slot is none of them is decided DNI by Decide in both
// classes; an entry with fewer parameters than the slot's Need must be
// decided like a candidate. It allocates nothing.
func (p *PairPlan) Probe(pu *PreparedUpdate) (keys [2]sqlparse.Key, n int, ok bool) {
	switch p.probe {
	case probeInsert:
		if pu.row == nil {
			return keys, 0, false
		}
		keys[0] = pu.row[p.probeAt].Key()
		return keys, 1, true
	case probeWhere:
		if !pu.consOK {
			return keys, 0, false
		}
		g := &p.insts[0].groups[p.probeAt]
		// A deletion's rows and a modification's pre-image have the WHERE
		// clause's value; a modification's post-image has its SET value
		// when the SET assigns the column, the same value otherwise.
		if keys[0], ok = eqKey(&pu.before, g.idx[before]); !ok || p.kind != kindModify {
			return keys, 1, ok
		}
		if keys[1], ok = eqKey(&pu.after, g.idx[after]); !ok || keys[1] == keys[0] {
			return keys, 1, ok
		}
		return keys, 2, true
	}
	return keys, 0, false
}

// eqKey returns the key of the equality the constraint set holds on its
// column i, and false when it holds none.
func eqKey(cs *consSet, i int) (sqlparse.Key, bool) {
	if rc := &cs.cols[i].rc; rc.hasEq {
		return rc.eq.Key(), true
	}
	return sqlparse.Key{}, false
}
