// Command dsspbench regenerates the tables and figures of the paper's
// evaluation. Each experiment prints the same rows/series the paper
// reports.
//
// Usage:
//
//	dsspbench -exp table2                 # invalidation scenarios (Table 2)
//	dsspbench -exp table4                 # toystore IPM characterization (Table 4)
//	dsspbench -exp table7                 # three-app IPM characterization (Table 7)
//	dsspbench -exp figure3                # bookstore security-scalability tradeoff
//	dsspbench -exp figure4 -app bboard    # strategy-class containment check
//	dsspbench -exp figure6 -pair U1/Q2    # one pair's invalidation probability matrix
//	dsspbench -exp figure7                # exposure reduction per template
//	dsspbench -exp batch -app auction     # batched invalidation: identical decisions, amortized walks
//	dsspbench -exp figure8                # scalability per invalidation strategy
//	dsspbench -exp security               # §5.4 security-enhancement summary
//	dsspbench -exp coalesce               # single-flight miss coalescing under a hot-key storm
//	dsspbench -exp scaleout -app auction  # simulated routed fleet throughput at 1/2/4 nodes (-out writes JSON)
//	dsspbench -exp homescale              # simulated trusted-tier throughput at 0/2/4 replicas, 1/2/4 partitions (-out writes JSON)
//	dsspbench -exp obs -app bboard        # short run's metrics snapshot (-format json|prom)
//	dsspbench -exp leakage -apps auction,bboard,bookstore,toystore
//	                                      # adversary's-eye leakage audit per exposure level (-out writes JSON)
//	dsspbench -exp trace -app bboard      # stitched fleet-wide traces through router + 2 nodes + home
//	dsspbench -exp elastic                # warm vs cold membership-change recovery (-out writes JSON)
//	dsspbench -exp all                    # everything (simulations included)
//
// Simulation-based experiments (figure3, figure8) accept -full for the
// paper's 10-minute runs; the default quick mode uses 150-second runs that
// preserve the shape.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dssp/internal/apps"
	"dssp/internal/experiments"
	"dssp/internal/simrun"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table2|table4|table7|figure3|figure4|figure6|figure7|figure8|batch|security|ablation|capacity|nodes|coalesce|scaleout|homescale|obs|leakage|trace|elastic|all")
	app := flag.String("app", "bboard", "application for figure4/batch/obs/scaleout/trace/leakage/ablation/capacity/nodes: auction|bboard|bookstore|toystore")
	pair := flag.String("pair", "U1/Q2", "toystore template pair for figure6, e.g. U1/Q2")
	full := flag.Bool("full", false, "use the paper's full 10-minute simulation runs")
	maxUsers := flag.Int("maxusers", 4000, "cap for the scalability search")
	seed := flag.Int64("seed", 1, "simulation seed")
	format := flag.String("format", "prom", "output format for -exp obs: prom|json")
	out := flag.String("out", "", "for -exp scaleout/homescale/leakage/elastic: also write the results as JSON to this file")
	appList := flag.String("apps", "", "comma-separated application list for -exp leakage (default: -app)")
	flag.Parse()

	opts := experiments.DefaultRunOptions()
	opts.Full = *full
	opts.MaxUsers = *maxUsers
	opts.Seed = *seed

	if err := run(*exp, *app, *pair, *format, *out, *appList, opts); err != nil {
		fmt.Fprintln(os.Stderr, "dsspbench:", err)
		os.Exit(1)
	}
}

// runLeakage runs the adversary's-eye audit for each application across
// the four uniform exposure levels and, when asked, writes the committed
// benchmark artifact (BENCH_leakage.json shape). A monotonicity
// violation — more exposure showing the adversary less — is an error.
func runLeakage(appNames []string, out string, opts experiments.RunOptions) error {
	for _, n := range appNames { // before hours of simulation, not after
		if _, err := apps.ByName(n); err != nil {
			return err
		}
	}
	r, err := experiments.LeakageAudit(appNames, 40, opts)
	if err != nil {
		return err
	}
	fmt.Println(r.Format())
	if bad := r.CheckMonotone(); len(bad) > 0 {
		return fmt.Errorf("leakage audit not monotone in exposure: %s", strings.Join(bad, "; "))
	}
	return artifact{
		Description: fmt.Sprintf("Adversary's-eye leakage audit at the DSSP trust boundary: "+
			"go run ./cmd/dsspbench -exp leakage -apps %s. Each application simulated under every uniform "+
			"exposure level with a leakage observer on the node's sealed traffic; rows report what the "+
			"adversary sees (distinct keys, template/parameter visibility, plaintext fraction, "+
			"update-invalidation correlation) alongside the hit rate that exposure level buys.",
			strings.Join(appNames, ",")),
		Leakage: r,
	}.write(out)
}

// runTrace drives three requests through a real router + two-node + home
// HTTP fleet and prints each one's stitched critical-path breakdown.
func runTrace(app string, opts experiments.RunOptions) error {
	r, err := experiments.TraceDemo(app, opts.Seed)
	if err != nil {
		return err
	}
	fmt.Println(r.Format())
	return nil
}

// runObs runs one short simulation and prints its metrics snapshot — the
// same names and labels a deployed node's /v1/metrics serves.
func runObs(app, format string, opts experiments.RunOptions) error {
	b, err := apps.ByName(app)
	if err != nil {
		return err
	}
	cfg := simrun.DefaultConfig(b, 50)
	cfg.Seed = opts.Seed
	cfg.Duration = 60 * time.Second
	if opts.Full {
		cfg.Duration = 10 * time.Minute
	}
	res, err := simrun.Simulate(cfg)
	if err != nil {
		return err
	}
	switch format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res.Metrics)
	case "prom", "prometheus":
		return res.Metrics.WritePrometheus(os.Stdout)
	default:
		return fmt.Errorf("unknown -format %q (want prom or json)", format)
	}
}

// runScaleout simulates the routed fleet at each size and, when asked,
// writes the committed benchmark artifact (BENCH_scaleout.json shape).
func runScaleout(app, out string, opts experiments.RunOptions) error {
	r, err := experiments.Scaleout(app, opts.Seed)
	if err != nil {
		return err
	}
	fmt.Println(r.Format())
	return artifact{
		Description: fmt.Sprintf("Scale-out throughput of the routed fleet: go run ./cmd/dsspbench -exp scaleout -app %s. "+
			"The simulator's run (%v virtual, deterministic) of a shard router in front of 1, 2 and 4 nodes over one shared home tier; "+
			"each node is one CPU spending %v on every statement it serves; %d back-to-back clients; hit rates count from a cold start; "+
			"fanout_skipped counts invalidation pushes the static analysis saved vs naive broadcast.",
			app, r.Run, r.Service, r.Clients),
		Scaleout: r,
	}.write(out)
}

// runElastic measures warm vs cold membership-change recovery on a live
// HTTP fleet and, when asked, writes the committed benchmark artifact
// (BENCH_elastic.json shape).
func runElastic(out string, opts experiments.RunOptions) error {
	r, err := experiments.Elastic(opts.Seed)
	if err != nil {
		return err
	}
	fmt.Println(r.Format())
	return artifact{
		Description: fmt.Sprintf("Elastic-fleet recovery: go run ./cmd/dsspbench -exp elastic. "+
			"Router + 2 nodes + home over HTTP; a %d-entry bookstore working set is warmed, then a third node joins "+
			"with a warm sealed-bucket handoff and a node is killed; a fresh identically seeded fleet repeats the join cold. "+
			"Recovery time is the number of %d-op intervals until the aggregate hit rate is within %.0f%% of steady state.",
			r.WorkingSet, r.IntervalOps, 100*r.Threshold),
		Elastic: r,
	}.write(out)
}

// runHomescale simulates the trusted tier at each read-replica count
// under a sustained miss storm, then at each partition count under an
// update-heavy workload, and, when asked, writes the committed benchmark
// artifact (BENCH_homescale.json shape).
func runHomescale(out string, opts experiments.RunOptions) error {
	r, err := experiments.Homescale(opts.Seed)
	if err != nil {
		return err
	}
	fmt.Println(r.Format())
	return artifact{
		Description: fmt.Sprintf("Trusted-tier scale-out with confirmed-update read replicas: "+
			"go run ./cmd/dsspbench -exp homescale. The simulator's run (%v virtual, deterministic) of one node "+
			"driving an uncacheable miss storm (every query asks for a non-existent row; empty results never cache) "+
			"plus 1 update per %d ops from %d back-to-back clients; the primary and each replica are one CPU spending "+
			"%v on every statement they execute. Rows report aggregate miss throughput and speedup vs the replica-free "+
			"baseline and where each miss executed. The update_heavy sweep partitions the master per table group "+
			"(wideshop4, four independent groups, every op an update, one such CPU per partition) and reports write "+
			"throughput and speedup vs the single-master baseline.",
			r.Run, r.UpdateEvery, r.Clients, r.Service),
		Homescale: r,
	}.write(out)
}

// run dispatches one experiment. Every experiment that takes -app
// resolves it through apps.ByName, so an unknown name is the same error
// whichever experiment meets it.
func run(exp, app, pair, format, out, appList string, opts experiments.RunOptions) error {
	switch exp {
	case "obs":
		return runObs(app, format, opts)
	case "scaleout":
		return runScaleout(app, out, opts)
	case "homescale":
		return runHomescale(out, opts)
	case "leakage":
		names := []string{app}
		if appList != "" {
			names = strings.Split(appList, ",")
		}
		return runLeakage(names, out, opts)
	case "trace":
		return runTrace(app, opts)
	case "elastic":
		return runElastic(out, opts)
	case "table2":
		r, err := experiments.Table2()
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "table4":
		fmt.Println(experiments.Table4().Format())
	case "table7":
		fmt.Println(experiments.Table7().Format())
	case "figure3":
		r, err := experiments.Figure3(opts)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "figure4":
		b, err := apps.ByName(app)
		if err != nil {
			return err
		}
		r, err := experiments.Figure4(b, 2000, opts.Seed)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "figure6":
		parts := strings.SplitN(pair, "/", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad -pair %q (want e.g. U1/Q2)", pair)
		}
		r, err := experiments.Figure6(parts[0], parts[1])
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "figure7":
		fmt.Println(experiments.Figure7().Format())
	case "figure8":
		r, err := experiments.Figure8(opts)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "security":
		fmt.Println(experiments.Security().Format())
	case "ablation":
		fmt.Println(experiments.AblationConstraints().Format())
		r, err := experiments.AblationScalability(app, opts)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "capacity":
		r, err := experiments.CapacitySweep(app, 150, []int{50, 100, 200, 400, 800, 0}, opts)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "nodes":
		r, err := experiments.NodeSweep(app, 200, []int{1, 2, 4, 8}, opts)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "coalesce":
		r, err := experiments.Coalesce(32, 5)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	case "batch":
		b, err := apps.ByName(app)
		if err != nil {
			return err
		}
		r, err := experiments.BatchInvalidation(b, 400, opts.Seed, []int{4, 8, 32})
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
		if !r.Passed() {
			return fmt.Errorf("batched invalidation diverged")
		}
	case "all":
		for _, e := range []string{"table2", "table4", "table7", "figure4", "figure6", "figure7", "batch", "security", "coalesce", "figure3", "figure8", "ablation", "capacity", "nodes"} {
			if err := run(e, app, pair, format, out, appList, opts); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// artifact is the shape of every committed BENCH_*.json this binary
// writes: what was run, where, and the one experiment's result.
type artifact struct {
	Description string                       `json:"description"`
	Environment map[string]interface{}       `json:"environment"`
	Scaleout    *experiments.ScaleoutResult  `json:"scaleout,omitempty"`
	Homescale   *experiments.HomescaleResult `json:"homescale,omitempty"`
	Elastic     *experiments.ElasticResult   `json:"elastic,omitempty"`
	Leakage     *experiments.LeakageResult   `json:"leakage,omitempty"`
}

// write stamps the environment and writes the artifact to out ("" = the
// run was only printed).
func (a artifact) write(out string) error {
	if out == "" {
		return nil
	}
	a.Environment = map[string]interface{}{
		"goos":   runtime.GOOS,
		"goarch": runtime.GOARCH,
		"cpus":   runtime.NumCPU(),
		"date":   time.Now().Format("2006-01-02"),
	}
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(buf, '\n'), 0o644)
}
