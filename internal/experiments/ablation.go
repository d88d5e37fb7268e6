package experiments

import (
	"fmt"
	"strings"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/metrics"
	"dssp/internal/simrun"
	"dssp/internal/template"
)

// AblationResult quantifies the design choices DESIGN.md calls out:
// the §4.5 integrity-constraint refinement and the exposure ladder itself.
type AblationResult struct {
	Rows []AblationRow
}

// AblationRow compares the analysis with and without integrity
// constraints for one application.
type AblationRow struct {
	App string

	// Pairs with A=0, with and without the §4.5 refinement.
	AZeroWith, AZeroWithout int

	// Query templates whose results can be encrypted for free, with and
	// without the refinement.
	EncryptableWith, EncryptableWithout int
}

// AblationConstraints reruns the static analysis with the integrity-
// constraint refinement disabled.
func AblationConstraints() *AblationResult {
	res := &AblationResult{}
	for _, b := range Benchmarks() {
		row := AblationRow{App: b.Name()}
		for _, with := range []bool{true, false} {
			opts := core.Options{UseIntegrityConstraints: with}
			a := core.Analyze(b.App(), opts)
			m := core.Methodology{App: b.App(), Compulsory: b.Compulsory(), Opts: opts}
			enc := core.EncryptedResultCount(b.App(), m.Run().Final)
			if with {
				row.AZeroWith = a.Counts().AllZero
				row.EncryptableWith = enc
			} else {
				row.AZeroWithout = a.Counts().AllZero
				row.EncryptableWithout = enc
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Format renders the comparison.
func (r *AblationResult) Format() string {
	var b strings.Builder
	b.WriteString("Ablation: §4.5 integrity-constraint refinement on/off\n\n")
	rows := [][]string{{"Application", "A=0 (with)", "A=0 (without)", "EncResults (with)", "EncResults (without)"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.App,
			fmt.Sprint(row.AZeroWith), fmt.Sprint(row.AZeroWithout),
			fmt.Sprint(row.EncryptableWith), fmt.Sprint(row.EncryptableWithout),
		})
	}
	table(&b, rows)
	return b.String()
}

// ScalabilityAblationRow measures the runtime effect of disabling the
// constraint refinement for one application at a fixed exposure level.
type ScalabilityAblationRow struct {
	App            string
	UsersWith      int
	UsersWithout   int
	HitRateWith    float64
	HitRateWithout float64
}

// AblationScalability measures the §4.5 refinement's runtime effect: the
// DSSP's template-inspection strategy with and without constraint-derived
// A=0 facts, at template exposure where those facts are all it has.
func AblationScalability(app string, opts RunOptions) (*ScalabilityAblationRow, error) {
	row := &ScalabilityAblationRow{App: app}
	for _, with := range []bool{true, false} {
		b, err := apps.ByName(app)
		if err != nil {
			return nil, err
		}
		cfg := opts.config(b)
		cfg.Exposures = simrun.UniformExposures(b.App(), template.ExpTemplate)
		cfg.AnalysisOpts = core.Options{UseIntegrityConstraints: with}
		users, at, err := simrun.MaxUsers(cfg, metrics.DefaultSLA(), opts.MaxUsers)
		if err != nil {
			return nil, err
		}
		var hit float64
		if at != nil {
			hit = at.HitRate
		}
		if with {
			row.UsersWith, row.HitRateWith = users, hit
		} else {
			row.UsersWithout, row.HitRateWithout = users, hit
		}
	}
	return row, nil
}

// Format renders the runtime ablation.
func (r *ScalabilityAblationRow) Format() string {
	return fmt.Sprintf(
		"Ablation (runtime, %s at template exposure): with constraints %d users (hit %.2f); without %d users (hit %.2f)\n",
		r.App, r.UsersWith, r.HitRateWith, r.UsersWithout, r.HitRateWithout)
}
