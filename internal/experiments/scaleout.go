package experiments

import (
	"fmt"
	"strings"
	"time"

	"dssp/internal/apps"
	"dssp/internal/obs"
	"dssp/internal/simrun"
	"dssp/internal/workload"
)

// The committed BENCH_scaleout.json configuration: 64 clients issuing
// statements back to back against 1, 2 and 4 router-fronted nodes, each
// node one CPU that spends 5 ms on every query and update it serves, in
// front of a home tier fast and wide enough never to be the bottleneck.
const (
	scaleoutClients  = 64
	scaleoutRun      = 120 * time.Second
	scaleoutService  = 5 * time.Millisecond
	scaleoutHomeCost = 100 * time.Microsecond
)

var scaleoutFleets = []int{1, 2, 4}

// shapeLink is the one-way latency of every link in the topology-shape
// runs. Their bandwidth is unlimited: the shape is the servers' to set.
const shapeLink = 100 * time.Microsecond

// shapeConfig is a simulated run of b in which clients issue statements
// back to back (a 1 µs think time) for run of virtual time, so the service
// slots in costs are what the run's throughput measures.
func shapeConfig(b workload.Benchmark, clients int, run time.Duration, costs workload.CostModel, seed int64) simrun.Config {
	cfg := simrun.DefaultConfig(b, clients)
	cfg.Duration, cfg.ThinkMean, cfg.Seed = run, time.Microsecond, seed
	cfg.Network = workload.NetworkModel{ClientLatency: shapeLink, HomeLatency: shapeLink}
	cfg.Costs = costs
	return cfg
}

// requests counts the statements of kind (obs.KindQuery or
// obs.KindUpdate) the run's nodes answered.
func requests(r *simrun.Result, kind string) int64 {
	var n int64
	for _, m := range r.Metrics.Metrics {
		if m.Name == obs.MRequestSeconds && m.Labels[obs.LKind] == kind {
			n += m.Count
		}
	}
	return n
}

// ScaleoutRow is one fleet size's measurement.
type ScaleoutRow struct {
	Nodes   int     `json:"nodes"`
	Queries int64   `json:"queries"`
	Updates int64   `json:"updates"`
	QPS     float64 `json:"qps"`
	Speedup float64 `json:"speedup_vs_1"`

	// HitRate is the fleet-wide cache hit rate from a cold start;
	// PerNodeHit breaks it down by node. Template affinity keeps every
	// template's bucket whole on one node, so the aggregate rate should
	// track the single-node deployment.
	HitRate    float64   `json:"hit_rate"`
	PerNodeHit []float64 `json:"per_node_hit_rate"`

	// FanoutSent counts invalidation-only pushes actually sent;
	// FanoutSkipped counts the pushes the static analysis proved
	// unnecessary — the messages a naive broadcast would have sent.
	FanoutSent    int `json:"fanout_sent"`
	FanoutSkipped int `json:"fanout_skipped"`
}

// ScaleoutResult is the full sweep.
type ScaleoutResult struct {
	Benchmark string        `json:"benchmark"`
	Clients   int           `json:"clients"`
	Service   time.Duration `json:"service_per_op_ns"`
	Run       time.Duration `json:"virtual_run_ns"`
	Rows      []ScaleoutRow `json:"results"`
}

// Scaleout measures routed throughput as nodes are added: for each fleet
// size it simulates the deployed topology — a shard router steering every
// statement to the node that owns it, over one shared home tier — with
// each node a single service slot. Adding a node adds exactly one slot,
// and the ownership split decides how much of the offered load each slot
// absorbs. The run is deterministic for a seed.
func Scaleout(appName string, seed int64) (*ScaleoutResult, error) {
	res := &ScaleoutResult{Benchmark: appName, Clients: scaleoutClients, Service: scaleoutService, Run: scaleoutRun}
	costs := workload.CostModel{
		HomeCapacity:   scaleoutClients,
		HomeQueryBase:  scaleoutHomeCost,
		HomeUpdateCost: scaleoutHomeCost,
		DSSPCapacity:   1,
		DSSPOpCost:     scaleoutService,
	}
	for _, n := range scaleoutFleets {
		b, err := apps.ByName(appName)
		if err != nil {
			return nil, err
		}
		cfg := shapeConfig(b, scaleoutClients, scaleoutRun, costs, seed)
		cfg.Nodes, cfg.Affinity = n, true
		r, err := simrun.Simulate(cfg)
		if err != nil {
			return nil, fmt.Errorf("fleet of %d: %w", n, err)
		}
		row := ScaleoutRow{
			Nodes:         n,
			Queries:       requests(r, obs.KindQuery),
			Updates:       requests(r, obs.KindUpdate),
			HitRate:       r.HitRate,
			FanoutSent:    r.FanoutMessages,
			FanoutSkipped: r.FanoutSkipped,
		}
		row.QPS = float64(row.Queries+row.Updates) / scaleoutRun.Seconds()
		for _, st := range r.PerNode {
			row.PerNodeHit = append(row.PerNodeHit, rate(int64(st.Hits), int64(st.Misses)))
		}
		res.Rows = append(res.Rows, row)
	}
	for i := range res.Rows {
		res.Rows[i].Speedup = res.Rows[i].QPS / res.Rows[0].QPS
	}
	return res, nil
}

func rate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Format renders the sweep the way the paper's scale-out discussion
// reads: throughput and hit rate per fleet size, plus the invalidation
// messages the analysis saved over a naive broadcast.
func (r *ScaleoutResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale-out: %s, %d back-to-back clients, %v service slot per node, %v virtual\n",
		r.Benchmark, r.Clients, r.Service, r.Run)
	rows := [][]string{{"nodes", "qps", "speedup", "hit rate", "per-node hit rate", "inv sent", "inv skipped"}}
	for _, row := range r.Rows {
		var per []string
		for _, h := range row.PerNodeHit {
			per = append(per, fmt.Sprintf("%.1f%%", 100*h))
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%.1f", row.QPS),
			fmt.Sprintf("%.2fx", row.Speedup),
			fmt.Sprintf("%.1f%%", 100*row.HitRate),
			strings.Join(per, " "),
			fmt.Sprintf("%d", row.FanoutSent),
			fmt.Sprintf("%d", row.FanoutSkipped),
		})
	}
	table(&b, rows)
	b.WriteString("Skipped pushes are invalidations a naive broadcast would have sent to nodes\n" +
		"the static analysis proved untouched by the update.\n")
	return b.String()
}
