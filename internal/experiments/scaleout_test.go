package experiments

import (
	"slices"
	"testing"
)

// TestScaleoutShape runs the committed scale-out configuration and holds it
// to the bounds CI asserts on BENCH_scaleout.json: a row per fleet size of
// 1, 2 and 4 nodes, a 2-node speedup over 1.2, a 4-node speedup above the
// 2-node one, and — the property template affinity exists for — hit rates
// within 0.1 of each other across fleet sizes. Pushes the static analysis
// saved at two nodes and a hit rate per node are checked too.
func TestScaleoutShape(t *testing.T) {
	r, err := Scaleout("auction", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(r.Rows))
	}
	var hits []float64
	for i, row := range r.Rows {
		if row.Nodes != scaleoutFleets[i] || len(row.PerNodeHit) != row.Nodes {
			t.Errorf("row %d = %+v, want %d nodes with a hit rate each", i, row, scaleoutFleets[i])
		}
		if row.Queries == 0 || row.QPS <= 0 {
			t.Errorf("%d nodes: measured no queries: %+v", row.Nodes, row)
		}
		hits = append(hits, row.HitRate)
	}
	one, two, four := r.Rows[0], r.Rows[1], r.Rows[2]
	if one.Speedup != 1 || two.Speedup <= 1.2 || four.Speedup <= two.Speedup {
		t.Errorf("speedups = %.3f, %.3f, %.3f; want 1, > 1.2, and above the 2-node one", one.Speedup, two.Speedup, four.Speedup)
	}
	if two.FanoutSkipped <= 0 {
		t.Errorf("two nodes: fanout_skipped = %d, want > 0 (the analysis pruned nothing)", two.FanoutSkipped)
	}
	if d := slices.Max(hits) - slices.Min(hits); d >= 0.1 {
		t.Errorf("hit rates %.3f spread %.3f across fleet sizes, want < 0.1", hits, d)
	}
}

// TestScaleoutDrivesToystore: -app's help text lists the toystore, and a
// private allow-list used to refuse it; its shared-state sessions must
// drive a routed fleet like any other application's.
func TestScaleoutDrivesToystore(t *testing.T) {
	r, err := Scaleout("toystore", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Queries == 0 || row.Updates == 0 {
			t.Errorf("toystore fleet row = %+v, want queries and updates", row)
		}
	}
}
