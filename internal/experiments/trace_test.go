package experiments

import (
	"slices"
	"strings"
	"testing"

	"dssp/internal/obs"
)

// TestTraceDemoFleetStitch is the fleet-tracing acceptance check: one
// request through a real router + two-node + home HTTP deployment must
// stitch into a single trace covering every hop — router proxy, node
// cache probe, home execution — under one trace ID.
func TestTraceDemoFleetStitch(t *testing.T) {
	r, err := TraceDemo("bboard", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("got %d traced requests, want query-miss, query-hit, update", len(r.Rows))
	}

	byKind := make(map[string]obs.StitchedTrace)
	for _, row := range r.Rows {
		byKind[row.Kind] = row.Trace
	}

	miss := byKind["query-miss"]
	for _, stage := range []string{obs.StageSeal, obs.StageRoute, obs.StageLookup, obs.StageNetwork, obs.StageAdmission, obs.StageHomeExec, obs.StageOpen} {
		if !slices.Contains(stages(miss), stage) {
			t.Errorf("query-miss trace lacks stage %q: %v", stage, stages(miss))
		}
	}
	procs := make(map[string]bool)
	for _, s := range miss.Spans {
		if s.Trace != miss.Trace {
			t.Errorf("span %s/%s carries trace %q, want %q", s.Process, s.Stage, s.Trace, miss.Trace)
		}
		procs[s.Process] = true
	}
	for _, p := range []string{obs.ProcClient, obs.ProcRouter, obs.ProcNode, obs.ProcHome} {
		if !procs[p] {
			t.Errorf("query-miss trace has no span from process %q", p)
		}
	}

	hit := byKind["query-hit"]
	if slices.Contains(stages(hit), obs.StageHomeExec) {
		t.Errorf("query-hit trace reached the home server: %v", stages(hit))
	}
	if !slices.Contains(stages(hit), obs.StageLookup) || !slices.Contains(stages(hit), obs.StageRoute) {
		t.Errorf("query-hit trace lacks the routed cache probe: %v", stages(hit))
	}

	up := byKind["update"]
	for _, stage := range []string{obs.StageSeal, obs.StageRoute, obs.StageHomeExec, obs.StageInvalidate} {
		if !slices.Contains(stages(up), stage) {
			t.Errorf("update trace lacks stage %q: %v", stage, stages(up))
		}
	}

	// The rendered breakdown is what EXPERIMENTS.md embeds; it must name
	// the fleet coordinates.
	if out := r.Format(); !strings.Contains(out, obs.ProcRouter+"/") {
		t.Errorf("formatted trace names no routed node:\n%s", out)
	}
}

// stages lists a stitched trace's stage names in tree (depth-first) order.
func stages(tr obs.StitchedTrace) []string {
	out := make([]string, len(tr.Spans))
	for i, s := range tr.Spans {
		out[i] = s.Stage
	}
	return out
}
