package experiments

import (
	"reflect"
	"testing"
)

// TestCoalesceHotKeyMissStorm is the acceptance check for single-flight
// coalescing, on the simulator's deterministic run of the storm: the home
// server executes the hot query at most once per invalidation — each
// flight follows its own bucket drop, or the cold start — where without
// coalescing every miss that joined a flight would have been an execution.
func TestCoalesceHotKeyMissStorm(t *testing.T) {
	r, err := Coalesce(1)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]CoalescePoint{}
	for _, p := range r.Points {
		byMode[p.Mode] = p
	}
	co := byMode["coalesced"]
	if co.HomeExecs < 1 || co.HomeExecs > r.Updates+1 {
		t.Errorf("coalesced home executions = %d, want 1..%d (one per bucket drop, plus the cold start)", co.HomeExecs, r.Updates+1)
	}
	if co.Coalesced == 0 {
		t.Error("coalesced mode recorded no coalesced misses")
	}
	if got, want := byMode["uncoalesced (derived)"].HomeExecs, co.HomeExecs+co.Coalesced; got != want {
		t.Errorf("uncoalesced row = %d, want the coalesced run's executions plus its coalesced misses, %d", got, want)
	}
	again, err := Coalesce(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, again) {
		t.Errorf("two runs of the storm differ:\n%+v\n%+v", r, again)
	}
}
