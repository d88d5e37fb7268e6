package experiments

import (
	"fmt"
	"strings"
	"time"

	"dssp/internal/apps"
	"dssp/internal/simrun"
)

// NodePoint is one measurement of the node-count sweep.
type NodePoint struct {
	Nodes         int
	HitRate       float64
	P90           time.Duration
	Invalidations int
}

// NodesResult sweeps the number of DSSP nodes at a fixed load: Figure 1
// shows many nodes close to clients, but each additional node fragments
// the cache (per-node cold entries) and multiplies invalidation traffic,
// while adding front-end CPU. The home server remains the shared
// bottleneck either way — the paper's motivation for caching precision
// over raw front-end capacity.
type NodesResult struct {
	App    string
	Users  int
	Points []NodePoint
}

// NodeSweep measures the effect of node count for one application.
func NodeSweep(app string, users int, nodeCounts []int, opts RunOptions) (*NodesResult, error) {
	res := &NodesResult{App: app, Users: users}
	for _, n := range nodeCounts {
		b, err := apps.ByName(app)
		if err != nil {
			return nil, err
		}
		cfg := opts.config(b)
		cfg.Users = users
		cfg.Nodes = n
		r, err := simrun.Simulate(cfg)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, NodePoint{
			Nodes:         n,
			HitRate:       r.HitRate,
			P90:           r.Response.Percentile(90),
			Invalidations: r.Invalidations,
		})
	}
	return res, nil
}

// Format renders the sweep.
func (r *NodesResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DSSP node-count sweep: %s at %d users\n\n", r.App, r.Users)
	rows := [][]string{{"Nodes", "HitRate", "p90", "Invalidations"}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprint(p.Nodes), fmt.Sprintf("%.3f", p.HitRate),
			p.P90.Round(time.Millisecond).String(), fmt.Sprint(p.Invalidations),
		})
	}
	table(&b, rows)
	return b.String()
}
