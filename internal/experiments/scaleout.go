package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/httpapi"
	"dssp/internal/obs"
	"dssp/internal/template"
	"dssp/internal/workload"
)

// ScaleoutOptions configures the scale-out throughput experiment.
type ScaleoutOptions struct {
	// Fleets lists the fleet sizes to measure, e.g. {1, 2, 4}.
	Fleets []int

	// Clients is the number of closed-loop driver goroutines (shared
	// across the fleet — the offered load is the same at every size).
	Clients int

	// Service is the modelled CPU cost of one query or update at a node.
	// All fleet sizes run on one machine, so real node CPUs cannot scale;
	// instead each node holds a single service slot for this long per
	// request, which makes per-node capacity explicit and identical
	// across fleet sizes. It must dwarf the real per-op CPU cost, or the
	// host's own cores become the bottleneck and mask the fleet.
	// Invalidation-only pushes cost a tenth of this — dropping buckets is
	// far cheaper than executing a query.
	Service time.Duration

	// WarmOps is how many operations to run before the counted window,
	// with the capacity gate disarmed: warming is driven by the number of
	// operations the caches have seen, so gating it would just hand the
	// bigger fleets a warmer start.
	WarmOps int

	// Measure is the counted window.
	Measure time.Duration

	// Seed drives data population and the client sessions.
	Seed int64
}

// DefaultScaleoutOptions returns the committed BENCH_scaleout.json
// configuration.
func DefaultScaleoutOptions() ScaleoutOptions {
	return ScaleoutOptions{
		Fleets:  []int{1, 2, 4},
		Clients: 64,
		Service: 5 * time.Millisecond,
		WarmOps: 16000,
		Measure: 8 * time.Second,
		Seed:    1,
	}
}

// ScaleoutRow is one fleet size's measurement.
type ScaleoutRow struct {
	Nodes   int     `json:"nodes"`
	Queries int64   `json:"queries"`
	Updates int64   `json:"updates"`
	QPS     float64 `json:"qps"`
	Speedup float64 `json:"speedup_vs_1"`

	// HitRate is the fleet-wide cache hit rate over the measure window;
	// PerNodeHit breaks it down by node. Template affinity keeps every
	// template's bucket whole on one node, so the aggregate rate should
	// track the single-node deployment.
	HitRate    float64   `json:"hit_rate"`
	PerNodeHit []float64 `json:"per_node_hit_rate"`

	// FanoutSent counts invalidation-only pushes actually sent;
	// FanoutSkipped counts the pushes the static analysis proved
	// unnecessary — the messages a naive broadcast would have sent.
	FanoutSent    int64 `json:"fanout_sent"`
	FanoutSkipped int64 `json:"fanout_skipped"`
	Broadcasts    int64 `json:"broadcasts"`
	ProxyErrors   int64 `json:"proxy_errors"`
}

// ScaleoutResult is the full sweep.
type ScaleoutResult struct {
	Benchmark string        `json:"benchmark"`
	Clients   int           `json:"clients"`
	Service   time.Duration `json:"service_per_op_ns"`
	WarmOps   int           `json:"warm_ops"`
	Measure   time.Duration `json:"measure_ns"`
	Rows      []ScaleoutRow `json:"results"`
}

// Scaleout measures routed throughput as real nodes are added: for each
// fleet size it stands up the full HTTP deployment — dssprouter's
// RouterServer fronting capacity-gated NodeServer processes over one
// shared home server — and drives it with closed-loop client sessions.
// The single-machine capacity gate (one service slot per node) is what
// lets one host measure a fleet honestly: adding a node adds exactly one
// slot, and the consistent-hash split decides how much of the offered
// load each slot absorbs.
func Scaleout(appName string, o ScaleoutOptions) (*ScaleoutResult, error) {
	if len(o.Fleets) == 0 {
		o = DefaultScaleoutOptions()
	}
	if _, err := apps.ByName(appName); err != nil {
		return nil, err
	}
	res := &ScaleoutResult{
		Benchmark: appName,
		Clients:   o.Clients,
		Service:   o.Service,
		WarmOps:   o.WarmOps,
		Measure:   o.Measure,
	}
	for _, n := range o.Fleets {
		row, err := runScaleoutFleet(appName, n, o)
		if err != nil {
			return nil, fmt.Errorf("fleet of %d: %w", n, err)
		}
		if len(res.Rows) > 0 && res.Rows[0].Nodes == 1 && res.Rows[0].QPS > 0 {
			row.Speedup = row.QPS / res.Rows[0].QPS
		} else if n == 1 {
			row.Speedup = 1
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runScaleoutFleet measures one fleet size. Queries and updates pay the
// full service time at a node, invalidation-only pushes a tenth —
// dropping buckets is far cheaper than executing a query.
func runScaleoutFleet(appName string, nodes int, o ScaleoutOptions) (ScaleoutRow, error) {
	row := ScaleoutRow{Nodes: nodes}
	b, err := apps.ByName(appName)
	if err != nil {
		return row, err
	}
	var gateArmed atomic.Bool
	spec := benchSpec(b, o.Seed)
	spec.Nodes, spec.Router, spec.Client = nodes, true, pooledClient(o.Clients)
	spec.Wrap = serviceGate(&gateArmed, map[string]time.Duration{
		httpapi.PathQuery:      o.Service,
		httpapi.PathUpdate:     o.Service,
		httpapi.PathInvalidate: o.Service / 10,
	}, httpapi.RoleNode)
	f, err := httpapi.Start(spec)
	if err != nil {
		return row, err
	}
	defer f.Close()

	stats := func() []cache.Stats {
		st := make([]cache.Stats, nodes)
		for i, n := range f.Nodes {
			st[i] = n.Cache.Stats()
		}
		return st
	}
	var (
		pre, post []cache.Stats
		sessMu    sync.Mutex // benchmark session state is single-threaded by contract
	)
	open := func() {
		pre = stats()
		gateArmed.Store(true)
	}
	shut := func() {
		post = stats()
		reg := f.Router.Reg
		fanout := reg.Histogram(obs.MRouterFanoutNodes)
		// The histogram encodes an n-node fan-out as n microseconds; the exec
		// node is always among them, so pushes sent = total touched − updates.
		row.FanoutSent = fanout.Sum().Microseconds() - fanout.Count()
		row.FanoutSkipped = reg.Counter(obs.MRouterFanoutSkipped).Value()
		row.Broadcasts = reg.Counter(obs.MRouterBroadcasts).Value()
		for _, kind := range []string{obs.KindQuery, obs.KindUpdate, obs.KindInvalidate} {
			row.ProxyErrors += reg.Counter(obs.MRouterProxyErrors, obs.L(obs.LKind, kind)).Value()
		}
	}
	var elapsed time.Duration
	row.Queries, row.Updates, elapsed, err = closedLoop(context.Background(), o.Clients, o.WarmOps, o.Measure, open, shut,
		func(c int) func(context.Context) (bool, error) {
			sess := b.NewSession(rand.New(rand.NewSource(o.Seed + 1000 + int64(c))))
			var page []workload.Op
			return func(ctx context.Context) (bool, error) {
				for len(page) == 0 {
					sessMu.Lock()
					page = sess.NextPage()
					sessMu.Unlock()
				}
				op := page[0]
				page = page[1:]
				if op.Template.Kind == template.KQuery {
					_, err := f.Client.Query(ctx, op.Template, opArgs(op)...)
					return false, err
				}
				_, _, err := f.Client.Update(ctx, op.Template, opArgs(op)...)
				return true, err
			}
		})
	if err != nil {
		return row, err
	}
	if row.ProxyErrors > 0 {
		return row, errors.New("proxied calls failed during a healthy-fleet run")
	}

	row.QPS = float64(row.Queries+row.Updates) / elapsed.Seconds()
	var hits, misses int64
	for i := range post {
		h := int64(post[i].Hits - pre[i].Hits)
		m := int64(post[i].Misses - pre[i].Misses)
		hits += h
		misses += m
		row.PerNodeHit = append(row.PerNodeHit, rate(h, m))
	}
	row.HitRate = rate(hits, misses)
	return row, nil
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
	fmt.Fprintf(&b, "Scale-out: %s, %d closed-loop clients, %v service slot per node\n",
		r.Benchmark, r.Clients, r.Service)
	rows := [][]string{{"nodes", "qps", "speedup", "hit rate", "per-node hit rate", "inv sent", "inv skipped", "broadcasts"}}
	for _, row := range r.Rows {
		var per []string
		for _, h := range row.PerNodeHit {
			per = append(per, fmt.Sprintf("%.1f%%", 100*h))
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%.0f", row.QPS),
			fmt.Sprintf("%.2fx", row.Speedup),
			fmt.Sprintf("%.1f%%", 100*row.HitRate),
			strings.Join(per, " "),
			fmt.Sprintf("%d", row.FanoutSent),
			fmt.Sprintf("%d", row.FanoutSkipped),
			fmt.Sprintf("%d", row.Broadcasts),
		})
	}
	table(&b, rows)
	b.WriteString("Skipped pushes are invalidations a naive broadcast would have sent to nodes\n" +
		"the static analysis proved untouched by the update.\n")
	return b.String()
}
