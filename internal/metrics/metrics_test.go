package metrics

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	if got := s.Percentile(90); got != 90*time.Millisecond {
		t.Errorf("p90 = %v", got)
	}
	if got := s.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("p100 = %v", got)
	}
	if got := s.Percentile(1); got != 1*time.Millisecond {
		t.Errorf("p1 = %v", got)
	}
}

func TestPercentileSmallSamples(t *testing.T) {
	var s Sample
	if s.Percentile(90) != 0 {
		t.Error("empty sample percentile should be 0")
	}
	s.Add(5 * time.Millisecond)
	if s.Percentile(90) != 5*time.Millisecond {
		t.Error("single sample")
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	var s Sample
	for _, v := range []int{5, 1, 4, 2, 3} {
		s.Add(time.Duration(v) * time.Second)
	}
	if got := s.Percentile(50); got != 3*time.Second {
		t.Errorf("p50 = %v", got)
	}
	s.Add(6 * time.Second) // adding after a percentile query must resort
	if got := s.Percentile(100); got != 6*time.Second {
		t.Errorf("p100 = %v", got)
	}
}

// The 100th percentile is the largest observation.
func TestMax(t *testing.T) {
	var s Sample
	if s.Percentile(100) != 0 {
		t.Error("empty sample max")
	}
	s.Add(1 * time.Second)
	s.Add(3 * time.Second)
	if s.Percentile(100) != 3*time.Second {
		t.Errorf("p100 = %v", s.Percentile(100))
	}
	if s.N() != 2 {
		t.Errorf("N = %d", s.N())
	}
}

func TestSLA(t *testing.T) {
	sla := DefaultSLA()
	var ok Sample
	for i := 0; i < 100; i++ {
		ok.Add(100 * time.Millisecond)
	}
	if !sla.Met(&ok) {
		t.Error("fast sample fails SLA")
	}
	var bad Sample
	for i := 0; i < 100; i++ {
		bad.Add(3 * time.Second)
	}
	if sla.Met(&bad) {
		t.Error("slow sample meets SLA")
	}
	var empty Sample
	if sla.Met(&empty) {
		t.Error("empty sample meets SLA")
	}
	// Exactly 10% slow still passes (90th percentile is the fast value).
	var edge Sample
	for i := 0; i < 90; i++ {
		edge.Add(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		edge.Add(time.Minute)
	}
	if !sla.Met(&edge) {
		t.Error("10% slow must still meet p90 SLA")
	}
}

func TestSearchMaxUsers(t *testing.T) {
	cases := []struct {
		limit int // trial passes iff users <= limit
		max   int
		want  int
	}{
		{0, 100, 0},
		{1, 100, 1},
		{7, 100, 7},
		{64, 100, 64},
		{100, 100, 100},
		{1000, 100, 100}, // capped by max
		{37, 40, 37},
	}
	for _, c := range cases {
		calls := 0
		got := SearchMaxUsers(c.max, func(u int) bool {
			calls++
			return u <= c.limit
		})
		if got != c.want {
			t.Errorf("limit=%d max=%d: got %d, want %d", c.limit, c.max, got, c.want)
		}
		if calls > 40 {
			t.Errorf("limit=%d: %d trials (search too slow)", c.limit, calls)
		}
	}
}

// TestSearchMaxUsersNeverRepeatsTrials pins the memoization contract: a
// trial is a full simulated run, so no user count may ever be evaluated
// twice — in particular not the max/boundary counts the doubling phase
// and the final clamp both land on.
func TestSearchMaxUsersNeverRepeatsTrials(t *testing.T) {
	for limit := 0; limit <= 70; limit++ {
		for _, max := range []int{1, 2, 7, 16, 17, 63, 64, 65, 100} {
			seen := map[int]int{}
			want := limit
			if want > max {
				want = max
			}
			got := SearchMaxUsers(max, func(u int) bool {
				seen[u]++
				return u <= limit
			})
			if got != want {
				t.Fatalf("limit=%d max=%d: got %d, want %d", limit, max, got, want)
			}
			for u, n := range seen {
				if n > 1 {
					t.Fatalf("limit=%d max=%d: trial(%d) executed %d times", limit, max, u, n)
				}
			}
		}
	}
}
