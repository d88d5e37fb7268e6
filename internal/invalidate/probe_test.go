package invalidate

import (
	"testing"

	"dssp/internal/apps"
)

// TestHotPairsProbe pins the slot rule to the pairs that carry the
// bookstore's invalidation work: on every one, both sides compare one
// column by equality, and the plan probes the index instead of scanning.
func TestHotPairsProbe(t *testing.T) {
	app := apps.NewBookstore().App()
	iv := newInvalidator(app)
	for _, pair := range [][2]string{
		{"U10", "Q12"}, {"U9", "Q5"}, {"U9", "Q27"}, {"U9", "Q13"}, {"U4", "Q18"}, {"U13", "Q5"}, {"U13", "Q13"},
	} {
		u, q := app.Update(pair[0]), app.Query(pair[1])
		if p := iv.Plan(u, q); p.tmpl == DNI || p.probe == probeScan {
			t.Errorf("%s/%s (%s | %s): the plan scans (template decision %v)", u.ID, q.ID, u.SQL, q.SQL, p.tmpl)
		}
	}
}
