package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dssp/internal/apps"
	"dssp/internal/obs"
	"dssp/internal/simrun"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
	"dssp/internal/workload"
)

// The -exp coalesce storm: 32 clients issuing statements back to back at
// one node for 1 s of virtual time, each statement Q1('bear') or, with
// probability 1/1000, a U1. The home server is one CPU spending 2 ms on
// every statement, so the misses after each invalidation overlap, as they
// do behind the WAN hop of Figure 1. The draw is random rather than every
// 1000th statement because hits and misses keep back-to-back clients in
// lockstep: a fixed period would send the updates in bursts of 32.
const (
	coalesceClients     = 32
	coalesceRun         = time.Second
	coalesceService     = 2 * time.Millisecond
	coalesceUpdateEvery = 1000
)

// CoalescePoint is one row of the hot-key miss storm's comparison.
type CoalescePoint struct {
	Mode      string
	HomeExecs int // home-server executions of the hot query
	Coalesced int // misses that joined an in-flight fetch instead
}

// CoalesceResult compares the miss storm a hot key suffers after each
// invalidation with and without single-flight coalescing: every client
// misses at once, and without coalescing each miss becomes its own
// home-server execution — the home server (the shared bottleneck the DSSP
// exists to offload, §1) absorbs O(clients) identical queries per
// invalidation. Coalescing collapses them to O(1).
type CoalesceResult struct {
	Clients     int
	UpdateEvery int
	Service     time.Duration
	Run         time.Duration
	Updates     int // U1s the home server confirmed: each drops the hot bucket
	Points      []CoalescePoint
}

// Coalesce runs the hot-key miss storm on the simulator. Q1 and U1 are at
// template exposure, so each confirmed U1 — which deletes nothing, there
// being no toy 999 — drops the whole Q1 bucket, and the sealed key is a
// digest coalescing must work without reading. The uncoalesced row is
// derived from the same run: every miss that joined a flight would
// otherwise have been its own home execution. The run is deterministic
// for a seed.
func Coalesce(seed int64) (*CoalesceResult, error) {
	toystore := apps.Toystore()
	q1, u1 := toystore.Query("Q1"), toystore.Update("U1")
	hot := &storm{name: "toystore-hot-key", app: toystore, populate: apps.SeedToystore,
		next: func(rng *rand.Rand, _ int) workload.Op {
			if rng.Intn(coalesceUpdateEvery) == 0 {
				return workload.Op{Template: u1, Params: []sqlparse.Value{sqlparse.IntVal(999)}}
			}
			return workload.Op{Template: q1, Params: []sqlparse.Value{sqlparse.StringVal("bear")}}
		}}
	cfg := shapeConfig(hot, coalesceClients, coalesceRun, workload.CostModel{
		HomeCapacity:   1,
		HomeQueryBase:  coalesceService,
		HomeUpdateCost: coalesceService,
		DSSPCapacity:   coalesceClients,
	}, seed)
	cfg.Exposures = map[string]template.Exposure{"Q1": template.ExpTemplate, "U1": template.ExpTemplate}
	r, err := simrun.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	execs := r.HomeQueries
	coalesced := int(r.Metrics.Find(obs.MCoalescedMisses, nil).Value)
	return &CoalesceResult{
		Clients: coalesceClients, UpdateEvery: coalesceUpdateEvery, Service: coalesceService, Run: coalesceRun,
		Updates: r.HomeUpdates,
		Points: []CoalescePoint{
			{Mode: "coalesced", HomeExecs: execs, Coalesced: coalesced},
			{Mode: "uncoalesced (derived)", HomeExecs: execs + coalesced},
		},
	}, nil
}

// Format renders the comparison.
func (r *CoalesceResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Single-flight miss coalescing: toystore hot key Q1('bear'), %d back-to-back clients, 1 U1 in %d statements,\n"+
		"%v home service per statement, %v virtual: %d confirmed updates, each dropping the hot bucket\n",
		r.Clients, r.UpdateEvery, r.Service, r.Run, r.Updates)
	b.WriteString("(home-server executions of the hot query; lower = less load on the shared bottleneck;\n" +
		"the uncoalesced row counts each coalesced miss as the execution it would have been)\n\n")
	rows := [][]string{{"Mode", "HomeExecs", "CoalescedMisses"}}
	for _, p := range r.Points {
		rows = append(rows, []string{p.Mode, fmt.Sprint(p.HomeExecs), fmt.Sprint(p.Coalesced)})
	}
	table(&b, rows)
	return b.String()
}
