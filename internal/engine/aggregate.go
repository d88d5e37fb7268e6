package engine

import (
	"bytes"
	"hash/maphash"
	"slices"

	"dssp/internal/sqlparse"
	"dssp/internal/storage"
)

// aggSink folds joined tuples into per-group accumulators as they arrive;
// no tuple is kept. Groups are identified by sqlparse.AppendKey's encoding
// of their GROUP BY values and numbered in first-seen order. Without GROUP
// BY the whole input is one group, which Run creates up front: it exists
// even when the input is empty (COUNT of nothing is 0; the other aggregates
// are NULL).
//
// Every buffer here is recycled with the exec, so the group index is built
// from parts that can be emptied and refilled in place: key encodings lie
// end to end in one byte arena, and an open-addressed table of group
// numbers, probed linearly from the key's hash, finds them. (A map keyed by
// the encodings themselves would need them as strings, which cannot be
// overwritten.)
type aggSink struct {
	slots  []int32 // group number + 1, 0 for empty; a power of two long, at most half full
	ends   []int32 // per group: where its key ends in arena; it starts where the previous one ends
	arena  []byte
	keyBuf []byte   // the current tuple's key
	accs   []aggAcc // len(plan.outs) accumulators per group

	// rows' scratch: one output row per group, sorted and cut to LIMIT
	// here, before the survivors are copied into the result.
	out     []sqlparse.Value
	outRows [][]sqlparse.Value
}

// groupSeed keys the group index's hash. Group numbers follow first-seen
// order, so no result depends on it.
var groupSeed = maphash.MakeSeed()

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
			key = sqlparse.AppendKey(key, tup[g.from][g.col])
		}
		s.keyBuf = key
		group = s.group(key, len(p.outs))
	}
	accs := s.accs[group*len(p.outs):][:len(p.outs)]
	for i := range p.outs {
		accs[i].add(&p.outs[i], tup)
	}
}

// group returns the number of the group whose key encoding is key,
// registering a new group on first sight.
func (s *aggSink) group(key []byte, outs int) int {
	if 2*len(s.ends) >= len(s.slots) {
		s.growIndex()
	}
	mask := uint64(len(s.slots) - 1)
	i := maphash.Bytes(groupSeed, key) & mask
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		if g := int(s.slots[i] - 1); bytes.Equal(s.key(g), key) {
			return g
		}
	}
	g := s.newGroup(outs)
	s.slots[i] = int32(g + 1)
	s.arena = append(s.arena, key...)
	s.ends = append(s.ends, int32(len(s.arena)))
	return g
}

// key returns group g's key encoding.
func (s *aggSink) key(g int) []byte {
	start := int32(0)
	if g > 0 {
		start = s.ends[g-1]
	}
	return s.arena[start:s.ends[g]]
}

// growIndex doubles the table and files every group again.
func (s *aggSink) growIndex() {
	s.slots = make([]int32, max(16, 2*len(s.slots)))
	mask := uint64(len(s.slots) - 1)
	for g := range s.ends {
		i := maphash.Bytes(groupSeed, s.key(g)) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = int32(g + 1)
	}
}

// newGroup appends one group's accumulators, zeroed, and returns its
// number.
func (s *aggSink) newGroup(outs int) int {
	g := len(s.accs) / outs
	for i := 0; i < outs; i++ {
		s.accs = append(s.accs, aggAcc{})
	}
	return g
}

// reset empties the sink for the next run, dropping every value it held.
func (s *aggSink) reset() {
	if len(s.ends) > 0 {
		clear(s.slots) // emptied at the size it grew to: the next run will not grow it again
	}
	clear(s.accs)
	clear(s.out)
	clear(s.outRows)
	s.ends, s.arena = s.ends[:0], s.arena[:0]
	s.accs, s.out, s.outRows = s.accs[:0], s.out[:0], s.outRows[:0]
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

// rows computes one output row per group, in first-seen order, applies
// ORDER BY and LIMIT over those rows, and copies the ones that remain into
// vals (sized): a LIMIT k answer holds k rows of memory, however many
// groups were ranked to choose them.
func (s *aggSink) rows(p *Plan, vals []sqlparse.Value) []sqlparse.Value {
	outs := len(p.outs)
	for i := range s.accs {
		s.out = append(s.out, s.accs[i].result(&p.outs[i%outs]))
	}
	for g := 0; g < len(s.accs)/outs; g++ {
		s.outRows = append(s.outRows, s.out[g*outs:(g+1)*outs])
	}
	ranked := s.outRows
	if len(p.outOrder) > 0 {
		if p.limit >= 0 {
			ranked = topK(ranked, p.limit, p.compareOut)
		} else {
			slices.SortStableFunc(ranked, p.compareOut)
		}
	}
	if p.limit >= 0 && len(ranked) > p.limit {
		ranked = ranked[:p.limit]
	}
	vals = sized(vals, len(ranked)*outs)
	for i, row := range ranked {
		copy(vals[i*outs:], row)
	}
	return vals
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
