package experiments

import (
	"strings"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/metrics"
	"dssp/internal/simrun"
	"dssp/internal/template"
)

func TestTable2MatchesPaper(t *testing.T) {
	r, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows: %d", len(r.Rows))
	}
	has := func(row Table2Row, label string) bool {
		for _, l := range row.Invalidated {
			if l == label {
				return true
			}
		}
		return false
	}
	// Row 1: everything invalidated.
	if len(r.Rows[0].Invalidated) != 5 {
		t.Errorf("blind row: %v", r.Rows[0].Invalidated)
	}
	// Row 2: all Q1 and Q2, not Q3.
	if !has(r.Rows[1], "Q1('bear')") || !has(r.Rows[1], "Q2(7)") || has(r.Rows[1], "Q3(1)") {
		t.Errorf("template row: %v", r.Rows[1].Invalidated)
	}
	// Row 3: all Q1, Q2 only if toy_id=5.
	if !has(r.Rows[2], "Q1('bear')") || !has(r.Rows[2], "Q2(5)") || has(r.Rows[2], "Q2(7)") {
		t.Errorf("stmt row: %v", r.Rows[2].Invalidated)
	}
	// Row 4: Q1 only if toy 5 in result (it is a kite), Q2 only toy_id=5.
	if has(r.Rows[3], "Q1('bear')") || !has(r.Rows[3], "Q1('kite')") || !has(r.Rows[3], "Q2(5)") || has(r.Rows[3], "Q2(7)") {
		t.Errorf("view row: %v", r.Rows[3].Invalidated)
	}
	if !strings.Contains(r.Format(), "Table 2") {
		t.Error("Format missing header")
	}
}

func TestTable4Format(t *testing.T) {
	r := Table4()
	out := r.Format()
	for _, want := range []string{"Q1", "Q2", "Q3", "U1", "U2", "A=0, B=A, C=B", "A=1, B=A, C<B"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 output missing %q:\n%s", want, out)
		}
	}
}

// TestTable7Shape checks the qualitative findings of Table 7: for every
// application the majority of pairs have A=B=C=0, and among the A=1 pairs
// the equalities B=A and/or C=B hold for the majority.
func TestTable7Shape(t *testing.T) {
	r := Table7()
	if len(r.Rows) != 3 {
		t.Fatalf("apps: %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		c := row.Counts
		if c.AllZero*2 <= c.Total() {
			t.Errorf("%s: A=B=C=0 not the majority: %+v", row.App, c)
		}
		nonzero := c.Total() - c.AllZero
		withEq := c.BLessCEq + c.BEqCEq + c.BEqCLess
		if nonzero > 0 && withEq*2 <= nonzero {
			t.Errorf("%s: equalities not the majority of A=1 pairs: %+v", row.App, c)
		}
		wantTotal := map[string]int{"auction": 18 * 9, "bboard": 15 * 8, "bookstore": 28 * 13}[row.App]
		if c.Total() != wantTotal {
			t.Errorf("%s: total %d, want %d", row.App, c.Total(), wantTotal)
		}
	}
}

// TestFigure7Reduction checks the §5.4 claims: the analysis enables a
// significant fraction of query results to be encrypted (for the
// bookstore, the paper reports 21 of 28; we require at least half), and
// exposure never increases.
func TestFigure7Reduction(t *testing.T) {
	r := Figure7()
	for _, app := range r.Apps {
		if app.EncryptedResultsFinal <= app.EncryptedResultsInitial {
			t.Errorf("%s: no additional encryption (%d -> %d)",
				app.App, app.EncryptedResultsInitial, app.EncryptedResultsFinal)
		}
		if app.EncryptedResultsFinal*2 < len(app.Queries) {
			t.Errorf("%s: only %d/%d query results encryptable",
				app.App, app.EncryptedResultsFinal, len(app.Queries))
		}
		for _, row := range append(append([]core.ReductionRow{}, app.Queries...), app.Updates...) {
			if row.Final > row.Initial {
				t.Errorf("%s: exposure of %s increased", app.App, row.ID)
			}
		}
	}
}

func TestSecurityExamplesEncryptable(t *testing.T) {
	r := Security()
	for _, app := range r.Apps {
		if len(app.Examples) == 0 {
			t.Errorf("%s: the paper's moderately-sensitive example did not become encryptable", app.App)
		}
	}
	out := r.Format()
	if !strings.Contains(out, "bid") || !strings.Contains(out, "rating") {
		t.Errorf("missing examples in:\n%s", out)
	}
}

func TestFigure6(t *testing.T) {
	r, err := Figure6("U1", "Q2")
	if err != nil {
		t.Fatal(err)
	}
	// U1/Q2: A=1, B<A, C=B. Blind row all 1; template exposure 1; stmt and
	// view both B.
	e := func(eu, eq template.Exposure) string {
		return r.Cells[[2]template.Exposure{eu, eq}].String()
	}
	if e(template.ExpBlind, template.ExpView) != "1" || e(template.ExpStmt, template.ExpBlind) != "1" {
		t.Error("Property 1 violated in cells")
	}
	if e(template.ExpTemplate, template.ExpView) != "1" {
		t.Error("A=1 cell wrong")
	}
	if e(template.ExpStmt, template.ExpStmt) != "B" || e(template.ExpStmt, template.ExpView) != "B" {
		t.Errorf("C=B collapse wrong: stmt=%s view=%s",
			e(template.ExpStmt, template.ExpStmt), e(template.ExpStmt, template.ExpView))
	}
	if _, err := Figure6("U9", "Q9"); err == nil {
		t.Error("unknown pair accepted")
	}
}

func TestFigure4Containment(t *testing.T) {
	r, err := Figure4(apps.NewBBoard(), 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Violations != 0 {
		t.Errorf("containment violations: %d", r.Violations)
	}
	if r.MissedGround != 0 {
		t.Errorf("missed ground-truth invalidations: %d", r.MissedGround)
	}
	if r.Invalidated["MBS"] < r.Invalidated["MTIS"] || r.Invalidated["MTIS"] < r.Invalidated["MSIS"] ||
		r.Invalidated["MSIS"] < r.Invalidated["MVIS"] {
		t.Errorf("gradient violated: %v", r.Invalidated)
	}
	if r.StrictBlind == 0 {
		t.Error("template inspection never helped")
	}
}

// TestFigure8QuickShape runs a heavily scaled-down Figure 8 for one
// application and checks the headline ordering. The full experiment runs
// via cmd/dsspbench and the top-level benchmarks.
func TestFigure8QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	users := map[string]int{}
	for _, st := range strategies {
		b := apps.NewBBoard()
		cfg := simrun.DefaultConfig(b, 0)
		cfg.Duration = 120 * time.Second
		cfg.Warmup = 30 * time.Second
		cfg.Exposures = simrun.UniformExposures(b.App(), st.Exp)
		n, _, err := simrun.MaxUsers(cfg, metrics.DefaultSLA(), 500)
		if err != nil {
			t.Fatal(err)
		}
		users[st.Name] = n
	}
	// MVIS never decides Invalidate where MSIS decides DNI — simrun's
	// TestViewContainsStatementOnReplay checks that exactly, on one script —
	// so what separates the two here is the search alone. At this test's
	// cap both reach 500 on every seed tried; with the cap at 1000, seeds
	// 1–5 gave MSIS 782–813 (±2 %) and MVIS/MSIS between 1.01 and 1.08.
	if users["MVIS"]*100 < users["MSIS"]*97 {
		t.Errorf("MVIS below MSIS by more than the search's 3%%: %v", users)
	}
	top := users["MVIS"]
	if users["MSIS"] < top {
		top = users["MSIS"]
	}
	if !(top > users["MTIS"] && users["MTIS"] > users["MBS"]) {
		t.Errorf("ordering violated: %v", users)
	}
	if users["MVIS"] < 4*users["MBS"]+4 {
		t.Errorf("bboard blind strategy should collapse: %v", users)
	}
}
