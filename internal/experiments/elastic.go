package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"

	"dssp/internal/apps"
	"dssp/internal/httpapi"
	"dssp/internal/shard"
	"dssp/internal/template"
)

// The elastic-fleet recovery experiment's shape, as committed in
// BENCH_elastic.json.
const (
	// elasticIntervalOps is the measurement granularity: hit rate is
	// sampled per interval of this many driver operations.
	elasticIntervalOps = 500
	// elasticSteadyIntervals is how many intervals establish the
	// steady-state hit rate before each membership event.
	elasticSteadyIntervals = 4
	// elasticMaxIntervals bounds how long a recovery is watched before
	// giving up.
	elasticMaxIntervals = 40
	// elasticThreshold is the recovery band: recovered means the interval
	// hit rate is within this much of steady state.
	elasticThreshold = 0.02
)

// ElasticPhase is one membership event's measured recovery.
type ElasticPhase struct {
	Kind string `json:"kind"` // "join_warm", "kill", or "join_cold"

	// SteadyHitRate is the pre-event steady state; RecoveryIntervals is
	// the 1-based index of the first post-event interval whose hit rate
	// is within the threshold of steady (the issue's recovery time).
	SteadyHitRate     float64 `json:"steady_hit_rate"`
	RecoveryIntervals int     `json:"recovery_intervals"`
	Recovered         bool    `json:"recovered"`

	// EntriesMigrated counts sealed entries streamed during the event's
	// warm handoff (zero for cold joins and kills); EntriesRemissed
	// counts the cache misses paid from the event until recovery — the
	// entries the fleet had to re-earn from the home server.
	EntriesMigrated int `json:"entries_migrated"`
	EntriesRemissed int `json:"entries_remissed"`

	// MovedTemplates is how many template buckets changed owner at the
	// epoch flip; Epoch is the ring epoch after it.
	MovedTemplates int    `json:"moved_templates"`
	Epoch          uint64 `json:"epoch"`

	// Rates is the per-interval aggregate hit-rate series from the event
	// until recovery (or elasticMaxIntervals).
	Rates []float64 `json:"interval_hit_rates"`
}

// ElasticResult is the full run: a warm join and a kill against one
// fleet, then a cold join against an identically seeded fresh fleet.
type ElasticResult struct {
	Benchmark    string         `json:"benchmark"`
	InitialNodes int            `json:"initial_nodes"`
	WorkingSet   int            `json:"working_set_entries"`
	IntervalOps  int            `json:"interval_ops"`
	Threshold    float64        `json:"recovery_threshold"`
	Phases       []ElasticPhase `json:"phases"`

	// WarmOverCold is the warm join's recovery time over the cold join's,
	// in intervals — the issue's acceptance ratio (must be <= 1/3).
	WarmOverCold float64 `json:"warm_over_cold_recovery_ratio"`
}

// elasticOp is one working-set member: a query template and its single
// integer parameter (0 for parameterless use is not needed — every
// chosen template takes exactly one int).
type elasticOp struct {
	tmpl *template.Template
	arg  int64
}

// elasticWorkingSet enumerates a deterministic set of (template, key)
// pairs that are all populated at bookstore's default scale (1000 items,
// 400 customers and addresses, 200 orders, 30 countries — see
// apps.NewBookstore), so steady state is a pure hit stream and every
// post-event miss is attributable to the membership change. Spreading
// the set across many templates is what gives a join fine-grained
// ownership movement to measure: template affinity moves whole buckets.
func elasticWorkingSet(app *template.App) []elasticOp {
	var set []elasticOp
	add := func(id string, lo, hi int64) {
		t := app.Query(id)
		if t == nil {
			panic("elastic: unknown template " + id)
		}
		for k := lo; k <= hi; k++ {
			set = append(set, elasticOp{tmpl: t, arg: k})
		}
	}
	for _, id := range []string{"Q5", "Q6", "Q7", "Q13", "Q20", "Q27"} {
		add(id, 1, 400) // item-keyed
	}
	add("Q14", 1, 400) // customer-keyed
	add("Q25", 1, 400)
	add("Q15", 1, 400) // address-keyed
	add("Q26", 1, 200) // order-keyed
	add("Q16", 1, 30)  // country-keyed
	return set
}

// elasticFleet is one live HTTP deployment — home server, node
// processes, and the router fronting them — plus the experiment's driver.
type elasticFleet struct{ *httpapi.Fleet }

func newElasticFleet(nodes int, seed int64) (elasticFleet, error) {
	spec := benchSpec(apps.NewBookstore(), seed)
	spec.Nodes = nodes
	f, err := httpapi.Start(spec)
	return elasticFleet{f}, err
}

// admin posts one JSON ring-admin request and decodes the migration
// report the router answers with.
func (f elasticFleet) admin(path string, req any) (*shard.MigrationReport, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := f.HTTP.Post(f.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body)
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(msg.String()))
	}
	var rep shard.MigrationReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// interval drives ops uniform-random operations from the working set
// and returns the interval's aggregate hit rate plus its miss count.
func (f elasticFleet) interval(set []elasticOp, rng *rand.Rand, ops int) (float64, int, error) {
	hits := 0
	for i := 0; i < ops; i++ {
		op := set[rng.Intn(len(set))]
		res, err := f.Client.Query(context.Background(), op.tmpl, op.arg)
		if err != nil {
			return 0, 0, fmt.Errorf("%s(%d): %w", op.tmpl.ID, op.arg, err)
		}
		if res.Outcome.Hit {
			hits++
		}
	}
	return float64(hits) / float64(ops), ops - hits, nil
}

// warm runs two full sequential passes over the working set, so every
// entry is cached fleet-wide before measurement starts.
func (f elasticFleet) warm(set []elasticOp) error {
	for pass := 0; pass < 2; pass++ {
		for _, op := range set {
			if _, err := f.Client.Query(context.Background(), op.tmpl, op.arg); err != nil {
				return fmt.Errorf("warm %s(%d): %w", op.tmpl.ID, op.arg, err)
			}
		}
	}
	return nil
}

// steady measures the steady-state hit rate as the mean over
// elasticSteadyIntervals intervals.
func (f elasticFleet) steady(set []elasticOp, rng *rand.Rand) (float64, error) {
	sum := 0.0
	for i := 0; i < elasticSteadyIntervals; i++ {
		r, _, err := f.interval(set, rng, elasticIntervalOps)
		if err != nil {
			return 0, err
		}
		sum += r
	}
	return sum / elasticSteadyIntervals, nil
}

// recover watches intervals after a membership event until the hit rate
// re-enters the threshold band around steady, filling in the phase's
// recovery fields.
func (f elasticFleet) recover(set []elasticOp, rng *rand.Rand, ph *ElasticPhase) error {
	for i := 1; i <= elasticMaxIntervals; i++ {
		rate, misses, err := f.interval(set, rng, elasticIntervalOps)
		if err != nil {
			return err
		}
		ph.Rates = append(ph.Rates, rate)
		ph.EntriesRemissed += misses
		ph.RecoveryIntervals = i
		if rate >= ph.SteadyHitRate-elasticThreshold {
			ph.Recovered = true
			return nil
		}
	}
	return nil
}

// Elastic measures warm versus cold elasticity on a live HTTP fleet:
// router + two nodes + home, driven by a deterministic uniform working
// set. Against one fleet it joins a third node with a warm sealed-bucket
// handoff, then kills a node outright; against a fresh identically
// seeded fleet it joins the third node cold. Each event reports how many
// intervals the aggregate hit rate took to climb back within the
// threshold of steady state, and what the event cost in entries migrated
// versus re-missed. seed drives data population and the uniform
// working-set driver.
func Elastic(seed int64) (*ElasticResult, error) {
	res := &ElasticResult{
		Benchmark:    "bookstore",
		InitialNodes: 2,
		IntervalOps:  elasticIntervalOps,
		Threshold:    elasticThreshold,
	}

	runEvent := func(f elasticFleet, set []elasticOp, rng *rand.Rand, kind string, fire func() (*shard.MigrationReport, error)) (ElasticPhase, error) {
		ph := ElasticPhase{Kind: kind}
		var err error
		if ph.SteadyHitRate, err = f.steady(set, rng); err != nil {
			return ph, err
		}
		rep, err := fire()
		if err != nil {
			return ph, err
		}
		ph.EntriesMigrated = rep.Entries
		ph.MovedTemplates = rep.Moved
		ph.Epoch = rep.Epoch
		if err := f.recover(set, rng, &ph); err != nil {
			return ph, err
		}
		return ph, nil
	}

	// Fleet A: warm join, then a kill.
	fa, err := newElasticFleet(2, seed)
	if err != nil {
		return nil, err
	}
	defer fa.Close()
	set := elasticWorkingSet(apps.NewBookstore().App())
	res.WorkingSet = len(set)
	rng := rand.New(rand.NewSource(seed + 7))
	if err := fa.warm(set); err != nil {
		return nil, err
	}
	warmTrue, warmFalse := true, false
	joinWarm, err := runEvent(fa, set, rng, "join_warm", func() (*shard.MigrationReport, error) {
		return fa.admin(httpapi.PathRingJoin, httpapi.RingJoinRequest{URL: fa.AddNode(), Warm: &warmTrue})
	})
	if err != nil {
		return nil, fmt.Errorf("join_warm: %w", err)
	}
	res.Phases = append(res.Phases, joinWarm)
	kill, err := runEvent(fa, set, rng, "kill", func() (*shard.MigrationReport, error) {
		node := 0
		return fa.admin(httpapi.PathRingLeave, httpapi.RingLeaveRequest{Node: &node, Warm: &warmFalse})
	})
	if err != nil {
		return nil, fmt.Errorf("kill: %w", err)
	}
	res.Phases = append(res.Phases, kill)

	// Fleet B: the same join, cold — the baseline the warm handoff beats.
	fb, err := newElasticFleet(2, seed)
	if err != nil {
		return nil, err
	}
	defer fb.Close()
	rngB := rand.New(rand.NewSource(seed + 7))
	if err := fb.warm(set); err != nil {
		return nil, err
	}
	joinCold, err := runEvent(fb, set, rngB, "join_cold", func() (*shard.MigrationReport, error) {
		return fb.admin(httpapi.PathRingJoin, httpapi.RingJoinRequest{URL: fb.AddNode(), Warm: &warmFalse})
	})
	if err != nil {
		return nil, fmt.Errorf("join_cold: %w", err)
	}
	res.Phases = append(res.Phases, joinCold)

	if joinCold.RecoveryIntervals > 0 {
		res.WarmOverCold = float64(joinWarm.RecoveryIntervals) / float64(joinCold.RecoveryIntervals)
	}
	return res, nil
}

// Format renders the run the way the elasticity discussion reads: per
// event, how fast the fleet's hit rate recovered and what the event
// cost.
func (r *ElasticResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Elastic fleet: %s, %d initial nodes, %d-entry working set, %d-op intervals, recovery = within %.0f%% of steady\n",
		r.Benchmark, r.InitialNodes, r.WorkingSet, r.IntervalOps, 100*r.Threshold)
	rows := [][]string{{"event", "steady hit", "recovery", "migrated", "re-missed", "moved templates", "epoch"}}
	for _, ph := range r.Phases {
		rec := fmt.Sprintf("%d intervals", ph.RecoveryIntervals)
		if !ph.Recovered {
			rec = fmt.Sprintf(">%d intervals (never)", ph.RecoveryIntervals)
		}
		rows = append(rows, []string{
			ph.Kind,
			fmt.Sprintf("%.1f%%", 100*ph.SteadyHitRate),
			rec,
			fmt.Sprintf("%d", ph.EntriesMigrated),
			fmt.Sprintf("%d", ph.EntriesRemissed),
			fmt.Sprintf("%d", ph.MovedTemplates),
			fmt.Sprintf("%d", ph.Epoch),
		})
	}
	table(&b, rows)
	fmt.Fprintf(&b, "Warm join recovered in %.2fx the cold join's intervals (acceptance: <= 0.33x).\n", r.WarmOverCold)
	return b.String()
}
