// Bookstore drives the TPC-W-like benchmark end to end: it populates the
// store, serves a browsing session through the DSSP, places an order with
// an encrypted credit-card transaction, and then runs a miniature
// security-scalability experiment (the three Figure 3 points at reduced
// scale).
package main

import (
	"fmt"
	"log"
	"time"

	"dssp"
)

func main() {
	b := dssp.Bookstore()
	app := b.App()

	// Exposure assignment from the methodology: credit cards compulsory,
	// everything else reduced only where free.
	m := dssp.Methodology{App: app, Compulsory: b.Compulsory()}
	r := m.Run()

	key := make([]byte, dssp.KeySize)
	key[0] = 42 // demo key
	sys, err := dssp.NewSystem(app, key, r.Final)
	if err != nil {
		log.Fatal(err)
	}
	if err := dssp.PopulateBenchmark(b, sys.DB, 1); err != nil {
		log.Fatal(err)
	}

	// A browsing session: home page, product detail (twice: the second
	// detail view hits the DSSP cache), then checkout.
	fmt.Println("--- browsing ---")
	res, err := sys.Query("Q1", "user7")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("home: customer %v %v\n", res.Vals[1], res.Vals[2])

	for i := 0; i < 2; i++ {
		res, hit, err := sys.QueryOutcome("Q5", 1) // most popular book
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("product detail %q cost=%v (cache hit: %v)\n", res.Vals[0].Str, res.Vals[1], hit)
	}

	fmt.Println("\n--- checkout ---")
	// Create a cart, add the popular book, place the order.
	mustUpdate(sys, "U6", 90001, 0, 0)                    // new cart
	mustUpdate(sys, "U7", 90001, 90001, 1, 2)             // cart line: 2 copies of book 1
	mustUpdate(sys, "U3", 90001, 7, 100, 5000, "PENDING") // order
	mustUpdate(sys, "U4", 90001, 90001, 1, 2, 0)          // order line
	affected, invalidated, err := sys.Update("U5",
		90001, "VISA", "4111-000000000000", "FN7 LN7", 12, 5000) // cc_xacts: encrypted params
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("credit-card transaction stored (affected=%d, invalidated=%d)\n", affected, invalidated)
	fmt.Println("the DSSP never sees the card number: U5 runs at 'template' exposure")

	_, invalidated, err = sys.Update("U9", 55, 1) // stock update for book 1
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stock update invalidated %d cached entries\n", invalidated)

	fmt.Printf("\ncache stats: %+v\n", sys.CacheStats())

	// Miniature Figure 3: scalability at the three security
	// configurations, at reduced scale so it finishes in seconds.
	fmt.Println("\n--- security-scalability tradeoff (mini Figure 3) ---")
	points := []struct {
		label string
		exps  map[string]dssp.Exposure
	}{
		{"no encryption ", dssp.UniformExposures(app, dssp.ExpView)},
		{"our approach  ", r.Final},
		{"full encryption", dssp.UniformExposures(app, dssp.ExpBlind)},
	}
	for _, p := range points {
		fresh := dssp.Bookstore()
		cfg := dssp.DefaultSimConfig(fresh, 0)
		cfg.Duration = 60 * time.Second
		cfg.Warmup = 20 * time.Second
		cfg.Exposures = p.exps
		users, err := dssp.MeasureScalability(cfg, dssp.DefaultSLA(), 1200)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %2d query templates with encrypted results -> %4d users\n",
			p.label, dssp.EncryptedResultCount(fresh.App(), p.exps), users)
	}
}

func mustUpdate(sys *dssp.System, id string, params ...interface{}) {
	if _, _, err := sys.Update(id, params...); err != nil {
		log.Fatalf("%s: %v", id, err)
	}
}
