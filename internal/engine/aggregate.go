package engine

import (
	"slices"
	"strings"

	"dssp/internal/sqlparse"
	"dssp/internal/storage"
)

// aggSink folds joined tuples into per-group accumulators as they arrive;
// no tuple is kept. Groups are identified by storage.Key's encoding of
// their GROUP BY values and listed in first-seen order. Without GROUP BY
// the whole input is one group, which Run creates up front: it exists even
// when the input is empty (COUNT of nothing is 0; the other aggregates are
// NULL).
type aggSink struct {
	groups map[string]int32 // key encoding -> group number
	keys   strings.Builder  // backing store of the map's keys
	keyBuf []byte           // the current tuple's key
	accs   []aggAcc         // len(plan.outs) accumulators per group
}

// aggAcc is the running state of one output column of one group.
type aggAcc struct {
	n        int64          // rows folded in: all of them for COUNT(*) and pass-through, else the non-NULL inputs
	sum      float64        // SUM/AVG, accumulated in scan order
	val      sqlparse.Value // MIN/MAX so far; a pass-through column's first-seen value
	hasFloat bool           // some SUM input was not an integer
}

func (s *aggSink) add(p *Plan, tup []storage.Row) {
	group := 0
	if len(p.groupBy) > 0 {
		key := s.keyBuf[:0]
		for _, g := range p.groupBy {
			key = storage.AppendKey(key, tup[g.from][g.col])
		}
		s.keyBuf = key
		g, ok := s.groups[string(key)]
		if !ok {
			g = s.newGroup(key, len(p.outs))
		}
		group = int(g)
	}
	accs := s.accs[group*len(p.outs):][:len(p.outs)]
	for i := range p.outs {
		accs[i].add(&p.outs[i], tup)
	}
}

// newGroup registers a group under key. The map's key strings are slices
// of one append-only builder, so a new group costs no allocation of its
// own; bytes already written to a strings.Builder never change.
func (s *aggSink) newGroup(key []byte, outs int) int32 {
	if s.groups == nil {
		s.groups = make(map[string]int32)
	}
	g := int32(len(s.groups))
	off := s.keys.Len()
	s.keys.Write(key)
	s.groups[s.keys.String()[off:]] = g
	s.accs = append(s.accs, make([]aggAcc, outs)...)
	return g
}

func (a *aggAcc) add(o *aggOut, tup []storage.Row) {
	if o.star {
		a.n++
		return
	}
	v := tup[o.src.from][o.src.col]
	if o.agg == sqlparse.AggNone {
		if a.n == 0 {
			a.val = v
		}
		a.n++
		return
	}
	if v.IsNull() {
		return
	}
	a.n++
	switch o.agg {
	case sqlparse.AggMin:
		if a.n == 1 || v.Compare(a.val) < 0 {
			a.val = v
		}
	case sqlparse.AggMax:
		if a.n == 1 || v.Compare(a.val) > 0 {
			a.val = v
		}
	case sqlparse.AggSum, sqlparse.AggAvg:
		if v.Kind != sqlparse.KindInt {
			a.hasFloat = true
		}
		a.sum += v.AsFloat()
	}
}

func (a *aggAcc) result(o *aggOut) sqlparse.Value {
	switch o.agg {
	case sqlparse.AggNone, sqlparse.AggMin, sqlparse.AggMax:
		return a.val // NULL until a non-NULL input is seen
	case sqlparse.AggCount:
		return sqlparse.IntVal(a.n)
	case sqlparse.AggSum:
		switch {
		case a.n == 0:
			return sqlparse.Null()
		case a.hasFloat:
			return sqlparse.FloatVal(a.sum)
		default:
			return sqlparse.IntVal(int64(a.sum))
		}
	case sqlparse.AggAvg:
		if a.n == 0 {
			return sqlparse.Null()
		}
		return sqlparse.FloatVal(a.sum / float64(a.n))
	default:
		return sqlparse.Null()
	}
}

// rows computes one output row per group, in first-seen order, and then
// applies ORDER BY and LIMIT over those rows.
func (s *aggSink) rows(p *Plan) [][]sqlparse.Value {
	outs := len(p.outs)
	groups := len(s.accs) / outs
	if groups == 0 {
		return nil
	}
	vals := make([]sqlparse.Value, len(s.accs))
	for i := range s.accs {
		vals[i] = s.accs[i].result(&p.outs[i%outs])
	}
	rows := make([][]sqlparse.Value, groups)
	for g := range rows {
		rows[g] = vals[g*outs : (g+1)*outs : (g+1)*outs]
	}
	if len(p.outOrder) > 0 {
		if p.limit >= 0 {
			rows = topK(rows, p.limit, p.compareOut)
		} else {
			slices.SortStableFunc(rows, p.compareOut)
		}
	}
	if p.limit >= 0 && len(rows) > p.limit {
		rows = rows[:p.limit]
	}
	return rows
}

// compareOut orders two output rows of an aggregate query by the ORDER BY
// keys and then by full content (see orderedSink.compare).
func (p *Plan) compareOut(a, b []sqlparse.Value) int {
	for _, k := range p.outOrder {
		if c := a[k.col].Compare(b[k.col]); c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	for i := range a {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return 0
}
