package experiments

import (
	"fmt"
	"strings"
	"time"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/simrun"
)

// CapacityPoint is one measurement of the capacity sweep.
type CapacityPoint struct {
	Capacity  int // 0 = unbounded
	HitRate   float64
	Evictions int
	P90       time.Duration
}

// CapacityResult sweeps the DSSP cache capacity for one application at a
// fixed load — the shared-infrastructure scenario of §1, where a
// cost-effective DSSP divides memory among many tenant applications.
type CapacityResult struct {
	App    string
	Users  int
	Points []CapacityPoint
}

// CapacitySweep measures hit rate and response percentile across cache
// capacities.
func CapacitySweep(app string, users int, capacities []int, opts RunOptions) (*CapacityResult, error) {
	res := &CapacityResult{App: app, Users: users}
	for _, c := range capacities {
		b, err := apps.ByName(app)
		if err != nil {
			return nil, err
		}
		cfg := opts.config(b)
		cfg.Users = users
		cfg.CacheOpts = cache.Options{Capacity: c}
		r, err := simrun.Simulate(cfg)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, CapacityPoint{
			Capacity:  c,
			HitRate:   r.HitRate,
			Evictions: r.Cache.Evictions,
			P90:       r.Response.Percentile(90),
		})
	}
	return res, nil
}

// Format renders the sweep.
func (r *CapacityResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cache capacity sweep: %s at %d users\n\n", r.App, r.Users)
	rows := [][]string{{"Capacity", "HitRate", "Evictions", "p90"}}
	for _, p := range r.Points {
		capLabel := "unbounded"
		if p.Capacity > 0 {
			capLabel = fmt.Sprint(p.Capacity)
		}
		rows = append(rows, []string{
			capLabel, fmt.Sprintf("%.3f", p.HitRate), fmt.Sprint(p.Evictions), p.P90.Round(time.Millisecond).String(),
		})
	}
	table(&b, rows)
	return b.String()
}
