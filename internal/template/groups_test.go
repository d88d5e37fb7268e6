package template_test

import (
	"testing"

	"dssp/internal/apps"
	"dssp/internal/template"
)

// TestAppGroupsAssignmentIsTotalAndStable checks, for every bundled
// application, the template-level properties partition routing rests on:
// every template maps to exactly one group, all of a template's
// relations share that group (no template straddles a partition
// boundary), and two independent derivations agree.
func TestAppGroupsAssignmentIsTotalAndStable(t *testing.T) {
	appsUnderTest := []*template.App{
		apps.Toystore(),
		apps.NewAuction().App(),
		apps.NewBBoard().App(),
		apps.NewBookstore().App(),
	}
	for _, app := range appsUnderTest {
		g := template.AppGroups(app)
		g2 := template.AppGroups(app)
		all := append(append([]*template.Template{}, app.Queries...), app.Updates...)
		for _, tpl := range all {
			id := template.GroupOf(g, tpl)
			if tables := len(app.Schema.Tables()); id < 0 || id >= tables {
				t.Errorf("%s: template %s got group %d outside [0,%d)", app.Name, tpl.ID, id, tables)
			}
			for _, rel := range tpl.Relations {
				if got := g.OfTable(rel); got != id {
					t.Errorf("%s: template %s straddles groups: relation %s in %d, template in %d",
						app.Name, tpl.ID, rel, got, id)
				}
			}
			if id2 := template.GroupOf(g2, tpl); id2 != id {
				t.Errorf("%s: unstable group for %s: %d then %d", app.Name, tpl.ID, id, id2)
			}
		}
	}
}

// TestToystoreGroupsSplitInTwo pins the concrete split the partitioned
// experiments rely on: toys is independent of the FK-joined
// customers/credit_card pair, so toystore partitions two ways — Q1/Q2/U1
// on group 0, Q3/U2 on group 1.
func TestToystoreGroupsSplitInTwo(t *testing.T) {
	app := apps.Toystore()
	g := template.AppGroups(app)
	for _, tab := range app.Schema.Tables() {
		if id := g.OfTable(tab.Name); id != 0 && id != 1 {
			t.Fatalf("toystore table %s in group %d, want two groups, 0 and 1", tab.Name, id)
		}
	}
	want := map[string]int{"Q1": 0, "Q2": 0, "U1": 0, "Q3": 1, "U2": 1}
	for _, tpl := range append(append([]*template.Template{}, app.Queries...), app.Updates...) {
		if got := template.GroupOf(g, tpl); got != want[tpl.ID] {
			t.Errorf("template %s in group %d, want %d", tpl.ID, got, want[tpl.ID])
		}
	}
}
