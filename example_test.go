package dssp_test

import (
	"fmt"
	"time"

	"dssp"
)

// An application starts as a schema and the templates over it; a template
// is classified at construction, and its parameters are SQL values.
func ExampleNewTemplate() {
	s := dssp.NewSchema()
	s.MustAddTable("items", []dssp.Column{
		{Name: "id", Type: dssp.TInt},
		{Name: "price", Type: dssp.TFloat},
	}, "id")
	q, err := dssp.NewTemplate("Q1", s, "SELECT id FROM items WHERE price=?")
	if err != nil {
		panic(err)
	}
	fmt.Println(q.ID, q.NumParams, q.Relations, dssp.Float(9.5))
	// Output: Q1 1 [items] 9.5
}

// With no encryption every query template is exposed at the view level,
// and every update at the statement level.
func ExampleMaxExposures() {
	app := dssp.SimpleToystore()
	exps := dssp.MaxExposures(app)
	for _, q := range app.Queries {
		fmt.Println(q.ID, exps[q.ID])
	}
	fmt.Println(app.Updates[0].ID, exps[app.Updates[0].ID])
	// Output:
	// Q1 view
	// Q2 view
	// Q3 view
	// U1 stmt
}

// A system's metrics count what its cache did: here one miss and one hit.
func ExampleSystem_Metrics() {
	sys, err := dssp.NewSystem(dssp.Toystore(), make([]byte, dssp.KeySize), nil)
	if err != nil {
		panic(err)
	}
	if err := sys.DB.Insert("toys", []dssp.Value{dssp.Int(5), dssp.String("kite"), dssp.Int(25)}); err != nil {
		panic(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sys.Query("Q2", 5); err != nil {
			panic(err)
		}
	}
	labels := map[string]string{"template": "Q2"}
	snap := sys.Metrics()
	fmt.Println(snap.Find("dssp_cache_misses_total", labels).Value, snap.Find("dssp_cache_hits_total", labels).Value)
	// Output: 1 1
}

// A simulated run is deterministic: a short trial of the bulletin board
// serves pages, and the cache answers some of its queries.
func ExampleSimulate() {
	cfg := dssp.DefaultSimConfig(dssp.BBoard(), 20)
	cfg.Duration = 30 * time.Second
	r, err := dssp.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println(r.Pages > 0, r.HitRate > 0)
	// Output: true true
}
