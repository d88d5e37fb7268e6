package dssp

// One benchmark per table and figure of the paper's evaluation, plus
// micro-benchmarks for the substrate components. The experiment benches
// report their headline numbers through b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates every result in one run:
//
//	BenchmarkTable2    invalidation scenarios of Table 2
//	BenchmarkTable4    toystore IPM characterization of Table 4
//	BenchmarkTable7    three-application characterization of Table 7
//	BenchmarkFigure3   bookstore security-scalability tradeoff points
//	BenchmarkFigure4   strategy-class containment (Figure 4)
//	BenchmarkFigure6   IPM of one pair (Figure 6)
//	BenchmarkFigure7   exposure reduction (Figure 7)
//	BenchmarkFigure8   scalability per invalidation strategy (Figure 8)
//
// The Figure 3/8 benches use scaled-down quick runs; `cmd/dsspbench -full`
// reproduces the paper's 10-minute configuration.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/encrypt"
	"dssp/internal/engine"
	"dssp/internal/experiments"
	"dssp/internal/metrics"
	"dssp/internal/simrun"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// ---- Experiment benches: one per table/figure ----

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 4 {
			b.Fatal("bad row count")
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table4().Analysis == nil {
			b.Fatal("no analysis")
		}
	}
}

func BenchmarkTable7(b *testing.B) {
	var last *experiments.Table7Result
	for i := 0; i < b.N; i++ {
		last = experiments.Table7()
	}
	for _, row := range last.Rows {
		c := row.Counts
		b.ReportMetric(float64(c.AllZero), row.App+"_AZero")
		b.ReportMetric(float64(c.Total()), row.App+"_pairs")
	}
}

func BenchmarkFigure3(b *testing.B) {
	opts := quickOpts()
	var last *experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure3(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, p := range last.Points {
		b.ReportMetric(float64(p.Users), fmt.Sprintf("users_enc%d", p.EncryptedResults))
	}
}

func BenchmarkFigure4(b *testing.B) {
	var last *experiments.Figure4Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure4(apps.NewBBoard(), 500, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if r.Violations != 0 || r.MissedGround != 0 {
			b.Fatalf("containment/correctness violated: %+v", r)
		}
		last = r
	}
	for _, c := range []string{"MBS", "MTIS", "MSIS", "MVIS"} {
		b.ReportMetric(float64(last.Invalidated[c]), c+"_inval")
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6("U1", "Q2"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	var last *experiments.Figure7Result
	for i := 0; i < b.N; i++ {
		last = experiments.Figure7()
	}
	for _, app := range last.Apps {
		b.ReportMetric(float64(app.EncryptedResultsFinal), app.App+"_encrypted")
	}
}

func BenchmarkFigure8(b *testing.B) {
	opts := quickOpts()
	var last *experiments.Figure8Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, row := range last.Rows {
		b.ReportMetric(float64(row.Users), row.App+"_"+row.Strategy)
	}
}

func BenchmarkSecuritySummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Security()
		if len(r.Apps) != 3 {
			b.Fatal("bad app count")
		}
	}
}

// quickOpts scales the simulation experiments down for benchmark runs:
// shorter virtual runs and a lower user cap preserve the shape while
// keeping `go test -bench=.` inside the default test timeout. The
// EXPERIMENTS.md sweeps use cmd/dsspbench with the larger quick or full
// configurations.
func quickOpts() experiments.RunOptions {
	opts := experiments.DefaultRunOptions()
	opts.MaxUsers = 500
	opts.Duration = 120 * time.Second
	opts.Warmup = 30 * time.Second
	return opts
}

// ---- Micro-benchmarks: the substrate ----

func BenchmarkParseSelect(b *testing.B) {
	src := "SELECT i_id, i_title, i_cost FROM item WHERE i_subject=? ORDER BY i_title LIMIT 50"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDB(b *testing.B) *storage.Database {
	b.Helper()
	bench := apps.NewBookstore()
	db := storage.NewDatabase(bench.App().Schema)
	if err := bench.Populate(db, rand.New(rand.NewSource(1))); err != nil {
		b.Fatal(err)
	}
	return db
}

// benchRun compiles one bookstore query template the way the home server
// does at start-up and measures Plan.Run, the per-miss cost.
func benchRun(b *testing.B, id string, params ...sqlparse.Value) {
	db := benchDB(b)
	p, err := engine.Compile(db.Schema, apps.NewBookstore().App().Query(id).Stmt.(*sqlparse.SelectStmt))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(db, params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnginePointQuery(b *testing.B)  { benchRun(b, "Q5", sqlparse.IntVal(7)) }
func BenchmarkEngineIndexedJoin(b *testing.B) { benchRun(b, "Q6", sqlparse.IntVal(7)) }
func BenchmarkEngineGroupByTopK(b *testing.B) { benchRun(b, "Q4") }

// BenchmarkPlanCompile is what engine.ExecQuery pays per call on top of
// Run, and the home server once per template.
func BenchmarkPlanCompile(b *testing.B) {
	app := apps.NewBookstore().App()
	q := app.Query("Q6").Stmt.(*sqlparse.SelectStmt)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Compile(app.Schema, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeBookstore(b *testing.B) {
	app := apps.NewBookstore().App()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Analyze(app, core.DefaultOptions())
	}
}

func BenchmarkMethodologyBookstore(b *testing.B) {
	bench := apps.NewBookstore()
	m := core.Methodology{App: bench.App(), Compulsory: bench.Compulsory(), Opts: core.DefaultOptions()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run()
	}
}

func BenchmarkSealQuery(b *testing.B) {
	app := apps.Toystore()
	kr := encrypt.MustNewKeyring(make([]byte, encrypt.KeySize))
	codec := wire.NewCodec(app, kr, map[string]template.Exposure{"Q2": template.ExpBlind})
	q := app.Query("Q2")
	params := []sqlparse.Value{sqlparse.IntVal(5)}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := codec.SealQuery(q, params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeterministicSeal(b *testing.B) {
	kr := encrypt.MustNewKeyring(make([]byte, encrypt.KeySize))
	payload := make([]byte, 1024)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kr.Seal("bench", payload)
	}
}

func BenchmarkSystemQueryHit(b *testing.B) {
	app := apps.Toystore()
	sys, err := NewSystem(app, make([]byte, KeySize), nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.DB.Insert("toys", []Value{Int(5), String("kite"), Int(25)}); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Query("Q2", 5); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query("Q2", 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatedSecond(b *testing.B) {
	// Cost of simulating one virtual second of the bboard at 100 users.
	bench := apps.NewBBoard()
	cfg := simrun.DefaultConfig(bench, 100)
	cfg.Duration = time.Duration(b.N) * time.Second
	b.ResetTimer()
	r, err := simrun.Simulate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(r.Ops)/float64(b.N), "ops/vsec")
}

func BenchmarkScalabilitySearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench := apps.NewBBoard()
		cfg := simrun.DefaultConfig(bench, 0)
		cfg.Duration = 60 * time.Second
		cfg.Warmup = 20 * time.Second
		cfg.Exposures = simrun.UniformExposures(bench.App(), template.ExpView)
		if _, _, err := simrun.MaxUsers(cfg, metrics.DefaultSLA(), 200); err != nil {
			b.Fatal(err)
		}
	}
}
