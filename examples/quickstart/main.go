// Quickstart: define a tiny application, run the static analysis, and
// drive a complete DSSP system (client → caching node → home server) end
// to end. This is the paper's toystore example (Table 3 / §3.2).
package main

import (
	"fmt"
	"log"

	"dssp"
)

func main() {
	// The paper's toystore application: three query templates, two update
	// templates, a foreign key from credit cards to customers.
	app := dssp.Toystore()

	// 1. Static analysis: which data can be encrypted for free?
	analysis := dssp.Analyze(app)
	fmt.Println("IPM characterization (Table 4):")
	for _, u := range app.Updates {
		for _, q := range app.Queries {
			pa, _ := analysis.Pair(u.ID, q.ID)
			fmt.Printf("  %s/%s: %s\n", u.ID, q.ID, pa)
		}
	}

	// 2. The methodology: credit-card insertions must be encrypted
	//    (California law); everything else is reduced only where free.
	m := dssp.Methodology{
		App:        app,
		Compulsory: dssp.ExposureAssignment{"U2": dssp.ExpTemplate},
	}
	r := m.Run()
	fmt.Println("\nExposure assignment (§3.2):")
	for _, t := range append(append([]*dssp.Template{}, app.Queries...), app.Updates...) {
		fmt.Printf("  E(%s) = %-8s (was %s)\n", t.ID, r.Final[t.ID], r.Initial[t.ID])
	}

	// 3. Run the system under that assignment.
	key := make([]byte, dssp.KeySize) // demo key; use a random one in production
	sys, err := dssp.NewSystem(app, key, r.Final)
	if err != nil {
		log.Fatal(err)
	}

	// Load master data through the home server (inserts route through the
	// DSSP like any update).
	type toy struct {
		id   int64
		name string
		qty  int64
	}
	seedToys := []toy{{1, "bear", 10}, {2, "truck", 3}, {5, "kite", 25}}
	for _, t := range seedToys {
		row := []dssp.Value{dssp.Int(t.id), dssp.String(t.name), dssp.Int(t.qty)}
		if err := sys.DB.Insert("toys", row); err != nil {
			log.Fatal(err)
		}
	}

	// Query twice: the second time is served from the DSSP cache.
	for i := 0; i < 2; i++ {
		res, hit, err := sys.QueryOutcome("Q2", 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nQ2(5) -> qty=%v (cache hit: %v)", res.Vals[0], hit)
	}

	// Delete toy 5: the DSSP monitors the update and invalidates exactly
	// the affected entries.
	_, invalidated, err := sys.Update("U1", 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n\nU1(5) applied; %d cache entries invalidated\n", invalidated)

	res, hit, err := sys.QueryOutcome("Q2", 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q2(5) -> %d rows (cache hit: %v)\n", res.Len(), hit)
	fmt.Printf("\ncache stats: %+v\n", sys.CacheStats())
}
