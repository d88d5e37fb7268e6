package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// StitchedSpan is one span placed in its trace's tree: Depth is the
// distance from a root span, Self the span's duration minus the time
// already accounted for by its child spans (clamped at zero — clocks of
// different processes only agree on durations, never on epochs).
type StitchedSpan struct {
	SpanRecord
	Depth int
	Self  time.Duration
}

// StitchedTrace is one request's spans assembled across processes: the
// tree in depth-first order plus the per-stage critical-path breakdown
// (each span's self time — where the request actually spent its life).
type StitchedTrace struct {
	Trace TraceID
	Spans []StitchedSpan

	// Total is the sum of self times: the end-to-end work of the request
	// with parent/child double counting removed.
	Total time.Duration
}

// Stitch assembles spans — typically the merged contents of several
// processes' span stores — into per-trace trees. Spans are grouped by
// trace ID in input order; within a trace, parent links (SpanRecord.ID /
// Parent) build the tree, and spans whose parent is missing become roots.
// Cross-process wall clocks share no epoch, so ordering relies on parent
// links and input order, and timing math only ever subtracts durations.
func Stitch(spans []SpanRecord) []StitchedTrace {
	var order []TraceID
	byTrace := make(map[TraceID][]SpanRecord)
	for _, r := range spans {
		if r.Trace.IsZero() {
			continue
		}
		if _, ok := byTrace[r.Trace]; !ok {
			order = append(order, r.Trace)
		}
		byTrace[r.Trace] = append(byTrace[r.Trace], r)
	}
	out := make([]StitchedTrace, 0, len(order))
	for _, id := range order {
		out = append(out, stitchOne(id, byTrace[id]))
	}
	return out
}

func stitchOne(trace TraceID, spans []SpanRecord) StitchedTrace {
	present := make(map[SpanID]bool, len(spans))
	for _, r := range spans {
		if !r.ID.IsZero() {
			present[r.ID] = true
		}
	}
	children := make(map[SpanID][]int)
	var roots []int
	for i, r := range spans {
		if !r.Parent.IsZero() && present[r.Parent] && r.Parent != r.ID {
			children[r.Parent] = append(children[r.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	// Sibling order must not depend on which process's store arrived
	// first in the input (stores are fetched per process and
	// concatenated). A stable sort by stage name is deterministic and —
	// for every stage pair the pipeline records under one parent —
	// coincides with request chronology; ties keep input order.
	for _, c := range children {
		sort.SliceStable(c, func(i, j int) bool { return spans[c[i]].Stage < spans[c[j]].Stage })
	}

	st := StitchedTrace{Trace: trace}
	var walk func(i, depth int)
	walk = func(i, depth int) {
		r := spans[i]
		self := r.Duration
		for _, ci := range children[r.ID] {
			self -= spans[ci].Duration
		}
		if self < 0 {
			self = 0
		}
		st.Spans = append(st.Spans, StitchedSpan{SpanRecord: r, Depth: depth, Self: self})
		st.Total += self
		for _, ci := range children[r.ID] {
			walk(ci, depth+1)
		}
	}
	for _, ri := range roots {
		walk(ri, 0)
	}
	return st
}

// where renders a span's process/node coordinates.
func where(s SpanRecord) string {
	switch {
	case s.Process == "" && s.Node == "":
		return "-"
	case s.Node == "":
		return s.Process
	default:
		return s.Process + "/" + s.Node
	}
}

// Format renders the stitched trace as a critical-path breakdown: the
// span tree with each stage's total and self time, plus the share of the
// request's overall work the stage itself accounts for.
func (t StitchedTrace) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s  total %v\n", t.Trace, t.Total)
	for _, s := range t.Spans {
		pct := 0.0
		if t.Total > 0 {
			pct = 100 * float64(s.Self) / float64(t.Total)
		}
		fmt.Fprintf(&b, "  %-*s%-*s %-14s dur %-12v self %-12v %5.1f%%\n",
			2*s.Depth, "", 16-2*s.Depth, s.Stage, where(s.SpanRecord), s.Duration, s.Self, pct)
	}
	return b.String()
}
