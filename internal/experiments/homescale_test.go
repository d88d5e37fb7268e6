package experiments

import (
	"sync"
	"testing"
)

// committedHomescale is the committed home-scale configuration's run,
// shared by the tests that check its two sweeps.
var committedHomescale = sync.OnceValues(func() (*HomescaleResult, error) { return Homescale(1) })

// TestHomescaleReplicaSweepServesFromReplicas holds the committed replica
// sweep to the bounds CI asserts on BENCH_homescale.json — rows for 0, 2
// and 4 replicas, a 2-replica speedup over 1.2 and a 4-replica one above
// it — and checks what the sweep exists to show: with replicas behind the
// node every replica executes misses, the primary executes fewer than it
// did alone, and the confirmed stream kept advancing under the miss storm.
func TestHomescaleReplicaSweepServesFromReplicas(t *testing.T) {
	r, err := committedHomescale()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("replica rows = %d, want 3", len(r.Rows))
	}
	for i, row := range r.Rows {
		if row.Replicas != homescaleReplicas[i] || len(row.ReplicaMisses) != row.Replicas || row.MissQPS <= 0 {
			t.Errorf("row %d = %+v, want %d replicas with a miss count each", i, row, homescaleReplicas[i])
		}
		for k, m := range row.ReplicaMisses {
			if m == 0 {
				t.Errorf("replicas=%d: replica %d served no miss", row.Replicas, k)
			}
		}
		if row.Confirmed == 0 || row.Updates == 0 {
			t.Errorf("replicas=%d: confirmed_seq %d after %d updates, want both > 0", row.Replicas, row.Confirmed, row.Updates)
		}
	}
	if s := []float64{r.Rows[0].Speedup, r.Rows[1].Speedup, r.Rows[2].Speedup}; s[0] != 1 || s[1] <= 1.2 || s[2] <= s[1] {
		t.Errorf("replica speedups = %.3f; want 1, > 1.2, and above the 2-replica one", s)
	}
	if base := r.Rows[0]; base.PrimaryMisses == 0 || r.Rows[1].PrimaryMisses >= base.PrimaryMisses {
		t.Errorf("primary misses %d alone, %d with replicas: replicas took no load off it", base.PrimaryMisses, r.Rows[1].PrimaryMisses)
	}
}

// TestHomescaleUpdateSweepSplitsWrites holds the committed update-heavy
// sweep to the bounds CI asserts — rows for 1, 2 and 4 partitions, a
// 2-partition speedup over 1.7 and a 4-partition one above it — and checks
// the property the sweep exists to show: every partition master confirms
// updates, so the write stream really split across independent
// serialization orders.
func TestHomescaleUpdateSweepSplitsWrites(t *testing.T) {
	r, err := committedHomescale()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.UpdateRows) != 3 {
		t.Fatalf("update rows = %d, want 3", len(r.UpdateRows))
	}
	for i, row := range r.UpdateRows {
		if row.Partitions != homescalePartitions[i] || len(row.Confirmed) != row.Partitions || row.UpdateQPS <= 0 {
			t.Errorf("update row %d = %+v, want %d partitions with a confirmed stream each", i, row, homescalePartitions[i])
		}
		for p, c := range row.Confirmed {
			if c == 0 {
				t.Errorf("partitions=%d: partition %d confirmed no update; the write stream did not split", row.Partitions, p)
			}
		}
	}
	if s := []float64{r.UpdateRows[0].Speedup, r.UpdateRows[1].Speedup, r.UpdateRows[2].Speedup}; s[0] != 1 || s[1] <= 1.7 || s[2] <= s[1] {
		t.Errorf("partition speedups = %.3f; want 1, > 1.7, and above the 2-partition one", s)
	}
}
