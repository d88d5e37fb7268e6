// Package metrics collects response-time samples and implements the
// paper's scalability measure: the maximum number of concurrent users an
// application can support while keeping the response time below two
// seconds for 90% of HTTP requests (§5.2).
package metrics

import (
	"math"
	"sort"
	"time"
)

// Sample accumulates duration observations.
type Sample struct {
	vals   []time.Duration
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(d time.Duration) {
	s.vals = append(s.vals, d)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.vals) }

func (s *Sample) sortVals() {
	if !s.sorted {
		sort.Slice(s.vals, func(i, j int) bool { return s.vals[i] < s.vals[j] })
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method. It returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) time.Duration {
	if len(s.vals) == 0 {
		return 0
	}
	s.sortVals()
	rank := int(math.Ceil(p / 100 * float64(len(s.vals))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s.vals) {
		rank = len(s.vals)
	}
	return s.vals[rank-1]
}

// SLA is the paper's responsiveness criterion.
type SLA struct {
	Percentile float64       // e.g. 90
	Threshold  time.Duration // e.g. 2 s
}

// DefaultSLA returns the §5.2 criterion: 90th percentile below 2 seconds.
func DefaultSLA() SLA {
	return SLA{Percentile: 90, Threshold: 2 * time.Second}
}

// Met reports whether the sample satisfies the SLA. Empty samples fail:
// a run that completed no requests supports no users.
func (sla SLA) Met(s *Sample) bool {
	if s.N() == 0 {
		return false
	}
	return s.Percentile(sla.Percentile) < sla.Threshold
}

// SearchMaxUsers finds the maximum u in [1, max] for which trial(u)
// reports the SLA met, by doubling from lo and then binary searching.
// trial must be monotone in spirit (more users, slower responses); the
// search tolerates mild non-monotonicity by trusting the boundary it
// converges to. It returns 0 if even one user fails.
//
// Each trial is a full simulated run (minutes of virtual time), so
// results are memoized: trial is invoked at most once per user count no
// matter how the doubling and bisection phases revisit a boundary.
func SearchMaxUsers(max int, trial func(users int) bool) int {
	memo := make(map[int]bool)
	raw := trial
	trial = func(users int) bool {
		if met, ok := memo[users]; ok {
			return met
		}
		met := raw(users)
		memo[users] = met
		return met
	}
	if max < 1 || !trial(1) {
		return 0
	}
	lo := 1 // highest known-good
	hi := 0 // lowest known-bad (0 = unknown)
	for probe := 2; probe <= max; probe *= 2 {
		if trial(probe) {
			lo = probe
		} else {
			hi = probe
			break
		}
	}
	if hi == 0 {
		if lo >= max {
			return max
		}
		if trial(max) {
			return max
		}
		hi = max
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if trial(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
