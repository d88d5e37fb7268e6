// Package experiments regenerates every table and figure of the paper's
// evaluation (§1, §2, §4, §5): each experiment is a function returning a
// typed result with a Format method that prints the same rows/series the
// paper reports. The cmd/dsspbench binary and the top-level benchmarks are
// thin wrappers over this package.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/metrics"
	"dssp/internal/simrun"
	"dssp/internal/template"
	"dssp/internal/workload"
)

// RunOptions scales the simulation-based experiments.
type RunOptions struct {
	// Full uses the paper's parameters (10-minute runs). The default
	// quick mode uses 150-second runs with a 30-second warmup, which
	// preserves the shape at a fraction of the wall time.
	Full bool

	// MaxUsers caps the scalability search.
	MaxUsers int

	// Seed for the deterministic runs.
	Seed int64

	// Duration and Warmup, when set, override the quick-mode run length
	// (the benchmarks use shorter runs to stay inside go test's default
	// timeout). Ignored in Full mode.
	Duration, Warmup time.Duration
}

// DefaultRunOptions returns the quick configuration.
func DefaultRunOptions() RunOptions {
	return RunOptions{MaxUsers: 4000, Seed: 1}
}

func (o RunOptions) config(b workload.Benchmark) simrun.Config {
	cfg := simrun.DefaultConfig(b, 0)
	cfg.Seed = o.Seed
	if !o.Full {
		cfg.Duration = 150 * time.Second
		cfg.Warmup = 30 * time.Second
		if o.Duration > 0 {
			cfg.Duration = o.Duration
		}
		if o.Warmup > 0 {
			cfg.Warmup = o.Warmup
		}
	}
	return cfg
}

// Benchmarks returns fresh instances of the three §5.1 applications.
func Benchmarks() []workload.Benchmark {
	return []workload.Benchmark{
		apps.NewAuction(),
		apps.NewBBoard(),
		apps.NewBookstore(),
	}
}

// strategies lists the uniform exposure configurations of Figure 8, best
// (most exposed) first.
var strategies = []struct {
	Name string
	Exp  template.Exposure
}{
	{"MVIS", template.ExpView},
	{"MSIS", template.ExpStmt},
	{"MTIS", template.ExpTemplate},
	{"MBS", template.ExpBlind},
}

// table writes an aligned text table.
func table(b *strings.Builder, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, r := range rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
}

// Table7Result is the IPM characterization of the three applications.
type Table7Result struct {
	Rows []Table7Row
}

// Table7Row is one application's bucket counts.
type Table7Row struct {
	App    string
	Counts core.Counts
}

// Table7 runs the static analysis over the three benchmark applications
// with integrity constraints enabled, as in §5.1.1.
func Table7() *Table7Result {
	res := &Table7Result{}
	for _, b := range Benchmarks() {
		a := core.Analyze(b.App(), core.DefaultOptions())
		res.Rows = append(res.Rows, Table7Row{App: b.Name(), Counts: a.Counts()})
	}
	return res
}

// Format renders the table in the paper's layout.
func (r *Table7Result) Format() string {
	var b strings.Builder
	b.WriteString("Table 7: IPM characterization results (pair counts per bucket)\n\n")
	rows := [][]string{{"Application", "A=B=C=0", "B<A,C<B", "B<A,C=B", "B=A,C=B", "B=A,C<B", "Total"}}
	for _, row := range r.Rows {
		c := row.Counts
		rows = append(rows, []string{
			row.App,
			fmt.Sprint(c.AllZero), fmt.Sprint(c.BLessCLess), fmt.Sprint(c.BLessCEq),
			fmt.Sprint(c.BEqCEq), fmt.Sprint(c.BEqCLess), fmt.Sprint(c.Total()),
		})
	}
	table(&b, rows)
	return b.String()
}

// Table4Result is the toystore IPM characterization of Table 4.
type Table4Result struct {
	Analysis *core.Analysis
}

// Table4 characterizes the §3.2 toystore application.
func Table4() *Table4Result {
	return &Table4Result{Analysis: core.Analyze(apps.Toystore(), core.DefaultOptions())}
}

// Format renders the 2x3 characterization grid.
func (r *Table4Result) Format() string {
	var b strings.Builder
	b.WriteString("Table 4: IPM characterization for the example toystore application\n\n")
	rows := [][]string{{""}}
	for _, q := range r.Analysis.App.Queries {
		rows[0] = append(rows[0], q.ID)
	}
	for i, u := range r.Analysis.App.Updates {
		row := []string{u.ID}
		for j := range r.Analysis.App.Queries {
			row = append(row, r.Analysis.Pairs[i][j].String())
		}
		rows = append(rows, row)
	}
	table(&b, rows)
	return b.String()
}

// Figure8Result holds scalability per application and strategy.
type Figure8Result struct {
	Rows []Figure8Row
}

// Figure8Row is one bar of Figure 8.
type Figure8Row struct {
	App      string
	Strategy string
	Users    int
	HitRate  float64 // at the supported-user operating point
}

// Figure8 measures scalability under each coarse-grain invalidation
// strategy for the three applications.
func Figure8(opts RunOptions) (*Figure8Result, error) {
	res := &Figure8Result{}
	for i, b := range Benchmarks() {
		for _, st := range strategies {
			fresh := Benchmarks()[i] // every run gets its own instance
			cfg := opts.config(fresh)
			cfg.Exposures = simrun.UniformExposures(fresh.App(), st.Exp)
			users, at, err := simrun.MaxUsers(cfg, metrics.DefaultSLA(), opts.MaxUsers)
			if err != nil {
				return nil, err
			}
			row := Figure8Row{App: b.Name(), Strategy: st.Name, Users: users}
			if at != nil {
				row.HitRate = at.HitRate
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Format renders the bars as a table.
func (r *Figure8Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 8: scalability vs. coarse-grain invalidation strategy\n")
	b.WriteString("(max concurrent users with 90th-percentile response time < 2 s)\n\n")
	rows := [][]string{{"Application", "Strategy", "Users", "HitRate"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{row.App, row.Strategy, fmt.Sprint(row.Users), fmt.Sprintf("%.2f", row.HitRate)})
	}
	table(&b, rows)
	return b.String()
}

// Figure3Result holds the security-scalability tradeoff points of Figure 3.
type Figure3Result struct {
	Points []Figure3Point
}

// Figure3Point is one point of the tradeoff plot.
type Figure3Point struct {
	Label            string
	EncryptedResults int // query templates with encrypted results (x axis)
	Users            int // scalability (y axis)
}

// Figure3 measures the bookstore's security-scalability tradeoff at the
// three configurations the paper plots: no encryption (MVIS), our approach
// (compulsory caps + Step 2b reduction), and full encryption (MBS).
func Figure3(opts RunOptions) (*Figure3Result, error) {
	res := &Figure3Result{}
	measure := func(label string, exps map[string]template.Exposure) error {
		b := apps.NewBookstore()
		cfg := opts.config(b)
		cfg.Exposures = exps
		users, _, err := simrun.MaxUsers(cfg, metrics.DefaultSLA(), opts.MaxUsers)
		if err != nil {
			return err
		}
		res.Points = append(res.Points, Figure3Point{
			Label:            label,
			EncryptedResults: core.EncryptedResultCount(b.App(), exps),
			Users:            users,
		})
		return nil
	}

	b := apps.NewBookstore()
	if err := measure("no encryption", simrun.UniformExposures(b.App(), template.ExpView)); err != nil {
		return nil, err
	}
	m := core.Methodology{App: b.App(), Compulsory: b.Compulsory(), Opts: core.DefaultOptions()}
	if err := measure("our approach", m.Run().Final); err != nil {
		return nil, err
	}
	if err := measure("full encryption", simrun.UniformExposures(b.App(), template.ExpBlind)); err != nil {
		return nil, err
	}
	return res, nil
}

// Format renders the three points.
func (r *Figure3Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 3: security-scalability tradeoff (bookstore)\n")
	b.WriteString("x = query templates with encrypted results, y = supported users\n\n")
	rows := [][]string{{"Configuration", "EncryptedResults", "Users"}}
	for _, p := range r.Points {
		rows = append(rows, []string{p.Label, fmt.Sprint(p.EncryptedResults), fmt.Sprint(p.Users)})
	}
	table(&b, rows)
	return b.String()
}

// Figure7Result reports initial vs. final exposure levels per template for
// each application.
type Figure7Result struct {
	Apps []Figure7App
}

// Figure7App is one application's pair of curves.
type Figure7App struct {
	App     string
	Queries []core.ReductionRow
	Updates []core.ReductionRow

	EncryptedResultsInitial int
	EncryptedResultsFinal   int
}

// Figure7 runs the scalability-conscious security design methodology
// (California-law compulsory encryption, then Step 2b) for the three
// applications.
func Figure7() *Figure7Result {
	res := &Figure7Result{}
	for _, b := range Benchmarks() {
		m := core.Methodology{App: b.App(), Compulsory: b.Compulsory(), Opts: core.DefaultOptions()}
		r := m.Run()
		qs, us := r.Reductions()
		res.Apps = append(res.Apps, Figure7App{
			App:                     b.Name(),
			Queries:                 qs,
			Updates:                 us,
			EncryptedResultsInitial: core.EncryptedResultCount(b.App(), r.Initial),
			EncryptedResultsFinal:   core.EncryptedResultCount(b.App(), r.Final),
		})
	}
	return res
}

// Format renders the initial/final exposure series.
func (r *Figure7Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 7: exposure reduction from the static analysis\n")
	b.WriteString("(initial = California-law compulsory encryption only; final = after Step 2b)\n")
	for _, app := range r.Apps {
		fmt.Fprintf(&b, "\n%s — query templates (%d -> %d with encrypted results):\n",
			app.App, app.EncryptedResultsInitial, app.EncryptedResultsFinal)
		rows := [][]string{{"Template", "Initial", "Final"}}
		for _, row := range app.Queries {
			rows = append(rows, []string{row.ID, row.Initial.String(), row.Final.String()})
		}
		table(&b, rows)
		fmt.Fprintf(&b, "\n%s — update templates:\n", app.App)
		rows = [][]string{{"Template", "Initial", "Final"}}
		for _, row := range app.Updates {
			rows = append(rows, []string{row.ID, row.Initial.String(), row.Final.String()})
		}
		table(&b, rows)
	}
	return b.String()
}
