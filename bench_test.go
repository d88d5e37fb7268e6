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
	// One run before the timer fills the plan's scratch pool: building the
	// database can collect it, and refilling it inside a short timed loop
	// (Q4 keeps 1 000 groups of scratch) reads as hundreds of B/op that are
	// not the steady state the budgets are for.
	if _, err := p.Run(db, params); err != nil {
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

// BenchmarkSystemQueryHit is one cache hit through the in-process client
// at the default, view exposure: seal, lookup, and a copy of the cached
// plaintext result. BenchmarkSystemQueryHitSealed is the same hit at stmt
// exposure, where the client decrypts and decodes the result instead. Both
// are gated in BENCH_allocs.json with no headroom: the one allocation is
// the answer's box, which holds the QueryResult, the result and its value.
func BenchmarkSystemQueryHit(b *testing.B) { benchmarkQueryHit(b, nil, "Q2", 5) }

func BenchmarkSystemQueryHitSealed(b *testing.B) {
	benchmarkQueryHit(b, ExposureAssignment{"Q2": ExpStmt}, "Q2", 5)
}

// BenchmarkSystemQueryHitString is a sealed hit on a toy's row, whose
// name the client copies into the answer's box beside its three values:
// one allocation. BenchmarkSystemQueryHitLarge is a sealed hit on the rows
// of four toys, twelve values, more than the largest box holds: the answer
// falls back to a box of its own, its values and its string bytes each in
// an array of their own, three allocations. Both are gated in
// BENCH_allocs.json with no headroom.
func BenchmarkSystemQueryHitString(b *testing.B) {
	benchmarkQueryHit(b, ExposureAssignment{"Q4": ExpStmt}, "Q4", 5)
}

func BenchmarkSystemQueryHitLarge(b *testing.B) {
	benchmarkQueryHit(b, ExposureAssignment{"Q5": ExpStmt}, "Q5", 0)
}

// benchmarkQueryHit times hits on query id with one parameter, over the
// toystore with two templates more — Q4, a toy's row by id, and Q5, the
// rows of the toys above a quantity — and four toys.
func benchmarkQueryHit(b *testing.B, exps ExposureAssignment, id string, param int) {
	app := apps.Toystore()
	for _, q := range []struct{ id, sql string }{
		{"Q4", "SELECT toy_id, toy_name, qty FROM toys WHERE toy_id=?"},
		{"Q5", "SELECT toy_id, toy_name, qty FROM toys WHERE qty>?"},
	} {
		t, err := NewTemplate(q.id, app.Schema, q.sql)
		if err != nil {
			b.Fatal(err)
		}
		app.Queries = append(app.Queries, t)
	}
	sys, err := NewSystem(app, make([]byte, KeySize), exps)
	if err != nil {
		b.Fatal(err)
	}
	for i, name := range []string{"kite", "bear", "truck", "doll"} {
		if err := sys.DB.Insert("toys", []Value{Int(int64(5 + i)), String(name), Int(int64(25 + i))}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := sys.Query(id, param); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, hit, err := sys.QueryOutcome(id, param); err != nil || !hit {
			b.Fatalf("%s(%d): hit %v, err %v; want a hit", id, param, hit, err)
		}
	}
}

// BenchmarkSystemQueryMiss is one cache miss through the in-process
// client at the default, view exposure: each iteration invalidates Q2(5)
// at the node, untimed, and queries it again, so the miss is a home
// execution and a store. It is gated in BENCH_allocs.json with no
// headroom: the client lends the query it sealed, and the miss copies
// what it keeps — the key and the parameters — once, beside the home's
// result, the cache entry and the client's opened result.
func BenchmarkSystemQueryMiss(b *testing.B) {
	app := apps.Toystore()
	sys, err := NewSystem(app, make([]byte, KeySize), nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.DB.Insert("toys", []Value{Int(5), String("kite"), Int(25)}); err != nil {
		b.Fatal(err)
	}
	su, err := sys.Client.Codec.SealUpdate(app.Update("U1"), []Value{Int(5)})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Query("Q2", 5); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if sys.Client.Node.OnUpdateCompleted(su) != 1 {
			b.Fatal("the update did not invalidate Q2(5)")
		}
		b.StartTimer()
		if _, hit, err := sys.QueryOutcome("Q2", 5); err != nil || hit {
			b.Fatalf("Q2(5): hit %v, err %v; want a miss", hit, err)
		}
	}
}

// BenchmarkSystemUpdate is one update through the in-process client: a
// modification of toystore's toys by id at stmt exposure, warm, sealed
// into the client's scratch, forwarded and kept by the pipeline's update
// call, run at the home and walked against the cache, which holds Q2 of
// another toy. It is gated in BENCH_allocs.json at the exact count.
func BenchmarkSystemUpdate(b *testing.B) {
	app := apps.Toystore()
	u, err := NewTemplate("U3", app.Schema, "UPDATE toys SET qty=? WHERE toy_id=?")
	if err != nil {
		b.Fatal(err)
	}
	app.Updates = append(app.Updates, u)
	sys, err := NewSystem(app, make([]byte, KeySize), nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, id := range []int64{5, 7} {
		if err := sys.DB.Insert("toys", []Value{Int(id), String("kite"), Int(25)}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := sys.Query("Q2", 7); err != nil {
		b.Fatal(err)
	}
	if n, _, err := sys.Update("U3", 30, 5); err != nil || n != 1 {
		b.Fatal(n, err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.Update("U3", 30, 5); err != nil {
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
