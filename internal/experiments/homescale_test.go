package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestHomescaleUpdateSweepSplitsWrites runs a miniature update-heavy
// sweep and checks its structure: a row per partition count, a baseline
// speedup of 1, and — the property the experiment exists to show — every
// partition master confirming updates at P=2, proving the write stream
// really split across independent serialization orders. Throughput
// thresholds are asserted on the committed artifact in CI, not here,
// where the windows are too short to be stable.
func TestHomescaleUpdateSweepSplitsWrites(t *testing.T) {
	o := DefaultHomescaleOptions()
	o.Clients = 8
	o.Service = 500 * time.Microsecond
	o.WarmOps = 40
	o.Measure = 300 * time.Millisecond
	o.Replicas = []int{0}
	o.Partitions = []int{1, 2}

	r, err := Homescale(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.UpdateRows) != 2 {
		t.Fatalf("update rows = %d, want 2", len(r.UpdateRows))
	}
	base := r.UpdateRows[0]
	if base.Partitions != 1 || base.Speedup != 1 {
		t.Errorf("baseline row = %+v, want partitions 1 with speedup 1", base)
	}
	if base.Updates == 0 {
		t.Error("baseline measured no updates")
	}
	split := r.UpdateRows[1]
	if split.Partitions != 2 || len(split.Confirmed) != 2 {
		t.Fatalf("split row = %+v, want partitions 2 with 2 confirmed streams", split)
	}
	for p, c := range split.Confirmed {
		if c == 0 {
			t.Errorf("partition %d confirmed no update; the write stream did not split", p)
		}
	}
	if split.Speedup <= 0 {
		t.Errorf("split speedup = %v, want > 0", split.Speedup)
	}
	if out := r.Format(); !strings.Contains(out, "Partitioned-master write scaling") {
		t.Errorf("Format() missing the write-scaling table:\n%s", out)
	}
}

// TestHomescaleReplicaSweepServesFromReplicas runs a miniature replica
// sweep and checks what the experiment exists to show: with replicas
// behind the node every replica executes misses, the primary executes
// fewer than it did alone, and the confirmed stream kept advancing under
// the miss storm.
func TestHomescaleReplicaSweepServesFromReplicas(t *testing.T) {
	o := DefaultHomescaleOptions()
	o.Clients = 8
	o.Service = 500 * time.Microsecond
	o.UpdateEvery = 10
	o.WarmOps = 40
	o.Measure = 300 * time.Millisecond
	o.Replicas = []int{0, 2}
	o.Partitions = nil

	r, err := Homescale(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || len(r.UpdateRows) != 0 {
		t.Fatalf("rows = %d replica, %d update; want 2 and 0", len(r.Rows), len(r.UpdateRows))
	}
	base, scaled := r.Rows[0], r.Rows[1]
	if base.Replicas != 0 || base.Speedup != 1 || len(base.ReplicaMisses) != 0 || base.PrimaryMisses == 0 {
		t.Errorf("baseline row = %+v, want 0 replicas, speedup 1, every miss on the primary", base)
	}
	if scaled.Replicas != 2 || len(scaled.ReplicaMisses) != 2 {
		t.Fatalf("scaled row = %+v, want 2 replicas with a miss count each", scaled)
	}
	for i, m := range scaled.ReplicaMisses {
		if m == 0 {
			t.Errorf("replica %d served no miss", i)
		}
	}
	if scaled.PrimaryMisses >= base.PrimaryMisses {
		t.Errorf("primary misses %d with replicas, %d alone: replicas took no load off it", scaled.PrimaryMisses, base.PrimaryMisses)
	}
	for _, row := range r.Rows {
		if row.Confirmed == 0 || row.Updates == 0 {
			t.Errorf("replicas=%d: confirmed_seq %d after %d updates, want both > 0", row.Replicas, row.Confirmed, row.Updates)
		}
	}
}
