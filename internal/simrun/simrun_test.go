package simrun

import (
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/metrics"
	"dssp/internal/template"
)

func quickCfg(users int) Config {
	b := apps.NewBBoard()
	cfg := DefaultConfig(b, users)
	cfg.Duration = 60 * time.Second
	cfg.Warmup = 10 * time.Second
	return cfg
}

func TestSimulateBasics(t *testing.T) {
	cfg := quickCfg(20)
	r, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pages == 0 || r.Ops == 0 {
		t.Fatalf("no work done: %+v", r)
	}
	if r.Response.N() != r.Pages {
		t.Errorf("samples %d != pages %d", r.Response.N(), r.Pages)
	}
	if r.HitRate <= 0 || r.HitRate >= 1 {
		t.Errorf("hit rate %v implausible", r.HitRate)
	}
	if r.HomeQueries == 0 || r.HomeUpdates == 0 {
		t.Errorf("home server idle: %+v", r)
	}
	if r.HomeBusyFrac <= 0 || r.HomeBusyFrac > 1 {
		t.Errorf("busy frac %v", r.HomeBusyFrac)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	r1, err := Simulate(quickCfg(30))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(quickCfg(30))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Pages != r2.Pages || r1.Ops != r2.Ops || r1.Cache != r2.Cache ||
		r1.Response.Percentile(90) != r2.Response.Percentile(90) {
		t.Errorf("nondeterministic: %+v vs %+v", r1, r2)
	}
}

func TestSimulateSeedMatters(t *testing.T) {
	cfg := quickCfg(30)
	r1, _ := Simulate(cfg)
	cfg.Seed = 99
	r2, _ := Simulate(cfg)
	if r1.Ops == r2.Ops && r1.Response.Percentile(90) == r2.Response.Percentile(90) {
		t.Error("different seeds produced identical runs")
	}
}

func TestSimulateRejectsBadUsers(t *testing.T) {
	cfg := quickCfg(0)
	if _, err := Simulate(cfg); err == nil {
		t.Error("zero users accepted")
	}
}

func TestWarmupDropsEarlySamples(t *testing.T) {
	cfg := quickCfg(20)
	cfg.Warmup = 0
	all, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Warmup = 30 * time.Second
	warm, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Pages >= all.Pages {
		t.Errorf("warmup did not drop samples: %d vs %d", warm.Pages, all.Pages)
	}
}

func TestMoreUsersMoreLoad(t *testing.T) {
	small, err := Simulate(quickCfg(10))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Simulate(quickCfg(80))
	if err != nil {
		t.Fatal(err)
	}
	if big.Pages <= small.Pages {
		t.Errorf("pages did not scale: %d vs %d", small.Pages, big.Pages)
	}
	if big.HomeBusyFrac <= small.HomeBusyFrac {
		t.Errorf("home load did not scale: %v vs %v", small.HomeBusyFrac, big.HomeBusyFrac)
	}
}

func TestExposureAffectsHitRate(t *testing.T) {
	run := func(e template.Exposure) *Result {
		cfg := quickCfg(50)
		cfg.Exposures = UniformExposures(cfg.Benchmark.App(), e)
		r, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	view := run(template.ExpView)
	blind := run(template.ExpBlind)
	if view.HitRate <= blind.HitRate {
		t.Errorf("view hit rate %v should exceed blind %v", view.HitRate, blind.HitRate)
	}
	if view.Response.Percentile(90) >= blind.Response.Percentile(90) {
		t.Errorf("view p90 %v should beat blind %v",
			view.Response.Percentile(90), blind.Response.Percentile(90))
	}
}

func TestUniformExposuresCapsUpdates(t *testing.T) {
	app := apps.Toystore()
	m := UniformExposures(app, template.ExpView)
	if m["Q1"] != template.ExpView {
		t.Errorf("query exposure %v", m["Q1"])
	}
	if m["U1"] != template.ExpStmt {
		t.Errorf("update exposure %v (view is illegal for updates)", m["U1"])
	}
}

func TestMaxUsersSLA(t *testing.T) {
	cfg := quickCfg(0)
	// A generous SLA should support many users; an impossible one, zero.
	loose := metrics.SLA{Percentile: 90, Threshold: time.Hour}
	n, at, err := MaxUsers(cfg, loose, 50)
	if err != nil || n != 50 {
		t.Errorf("loose SLA: n=%d err=%v", n, err)
	}
	// The Result handed back is the run at the operating point: the same
	// one a fresh Simulate of that user count produces (runs are
	// deterministic per Config).
	cfg.Users = n
	again, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if at == nil || at.Users != n || at.HitRate != again.HitRate || at.Ops != again.Ops {
		t.Errorf("loose SLA: operating-point result %+v, want the %d-user run (hit rate %v, %d ops)", at, n, again.HitRate, again.Ops)
	}
	impossible := metrics.SLA{Percentile: 90, Threshold: time.Nanosecond}
	n, at, err = MaxUsers(cfg, impossible, 50)
	if err != nil || n != 0 || at != nil {
		t.Errorf("impossible SLA: n=%d result=%v err=%v", n, at, err)
	}
}

func TestMultiNodeSimulation(t *testing.T) {
	cfg := quickCfg(40)
	cfg.Nodes = 4
	r, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pages == 0 {
		t.Fatal("no pages")
	}
	// Determinism holds with multiple nodes too.
	r2, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pages != r2.Pages || r.Cache != r2.Cache {
		t.Error("multi-node simulation nondeterministic")
	}
	// Fan-out: every update reaches each node but its exec node, or the
	// router's planner proved that node untouched; the static analysis
	// spares some.
	if got, want := r.FanoutMessages+r.FanoutSkipped, 3*r.HomeUpdates; got != want || r.HomeUpdates == 0 {
		t.Errorf("fan-out accounting: sent %d + skipped %d = %d, want 3 × %d updates",
			r.FanoutMessages, r.FanoutSkipped, got, r.HomeUpdates)
	}
	if r.FanoutSkipped == 0 {
		t.Error("the planner pruned no fan-out message")
	}
}
