package experiments

import (
	"math"
	"testing"
	"time"
)

// TestScaleoutShape runs a miniature scale-out sweep and checks its
// structure: a row per fleet size, no proxied call failing, a hit rate
// per node, pushes the static analysis saved at two nodes, and — the
// property template affinity exists for — a fleet-wide hit rate that
// tracks the single node's. Throughput thresholds are asserted at full
// size in CI, not here, where the windows are too short to be stable.
func TestScaleoutShape(t *testing.T) {
	o := DefaultScaleoutOptions()
	o.Fleets = []int{1, 2}
	o.Clients = 8
	o.Service = 500 * time.Microsecond
	o.WarmOps = 4000
	o.Measure = 600 * time.Millisecond

	r, err := Scaleout("bookstore", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(r.Rows))
	}
	for i, row := range r.Rows {
		if row.Nodes != o.Fleets[i] || len(row.PerNodeHit) != row.Nodes {
			t.Errorf("row %d = %+v, want %d nodes with a hit rate each", i, row, o.Fleets[i])
		}
		if row.ProxyErrors != 0 {
			t.Errorf("%d nodes: %d proxy errors in a healthy fleet", row.Nodes, row.ProxyErrors)
		}
		if row.Queries == 0 || row.QPS <= 0 {
			t.Errorf("%d nodes: measured no queries: %+v", row.Nodes, row)
		}
	}
	one, two := r.Rows[0], r.Rows[1]
	if one.Speedup != 1 || two.Speedup <= 0 {
		t.Errorf("speedups = %v, %v; want 1 and > 0", one.Speedup, two.Speedup)
	}
	if two.FanoutSkipped <= 0 {
		t.Errorf("two nodes: fanout_skipped = %d, want > 0 (the analysis pruned nothing)", two.FanoutSkipped)
	}
	if d := math.Abs(two.HitRate - one.HitRate); d > 0.1 {
		t.Errorf("fleet hit rate %.3f strays %.3f from the single node's %.3f", two.HitRate, d, one.HitRate)
	}
}

// TestScaleoutDrivesToystore: -app's help text lists the toystore, and a
// private allow-list used to refuse it; its shared-state sessions must
// drive a routed fleet like any other application's.
func TestScaleoutDrivesToystore(t *testing.T) {
	o := DefaultScaleoutOptions()
	o.Fleets = []int{2}
	o.Clients = 4
	o.Service = 200 * time.Microsecond
	o.WarmOps = 200
	o.Measure = 100 * time.Millisecond
	r, err := Scaleout("toystore", o)
	if err != nil {
		t.Fatal(err)
	}
	if row := r.Rows[0]; row.Queries == 0 || row.ProxyErrors != 0 {
		t.Errorf("toystore fleet row = %+v, want queries and no proxy errors", row)
	}
}
