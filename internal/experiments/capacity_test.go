package experiments

import (
	"strings"
	"testing"
)

func TestCapacitySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	opts := DefaultRunOptions()
	// Keep it light: short run, modest load.
	r, err := CapacitySweep("bboard", 40, []int{20, 200, 0}, quickOptsForTest())
	if err != nil {
		t.Fatal(err)
	}
	_ = opts
	if len(r.Points) != 3 {
		t.Fatalf("points: %d", len(r.Points))
	}
	tiny, big, unbounded := r.Points[0], r.Points[1], r.Points[2]
	if tiny.HitRate >= unbounded.HitRate {
		t.Errorf("tiny cache should hit less: %.3f vs %.3f", tiny.HitRate, unbounded.HitRate)
	}
	if tiny.Evictions == 0 {
		t.Error("tiny cache never evicted")
	}
	if unbounded.Evictions != 0 {
		t.Error("unbounded cache evicted")
	}
	if big.HitRate < tiny.HitRate {
		t.Errorf("bigger cache should not hit less: %.3f vs %.3f", big.HitRate, tiny.HitRate)
	}
	if !strings.Contains(r.Format(), "unbounded") {
		t.Error("Format missing unbounded label")
	}
}

// quickOptsForTest shrinks the simulated duration for unit-test speed.
func quickOptsForTest() RunOptions {
	o := DefaultRunOptions()
	o.MaxUsers = 100
	return o
}
