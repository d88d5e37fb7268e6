// Command dsspanalyze runs the paper's static analysis over one of the
// built-in applications: it prints the IPM characterization of every
// update/query template pair, then the scalability-conscious security
// design methodology's exposure assignment (California-law compulsory
// encryption followed by Step 2b reduction).
//
// Usage:
//
//	dsspanalyze -app bookstore
//	dsspanalyze -app toystore -constraints=false   # §4.5 ablation
package main

import (
	"flag"
	"fmt"
	"os"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/template"
)

func main() {
	appName := flag.String("app", "toystore", "application: toystore|auction|bboard|bookstore")
	constraints := flag.Bool("constraints", true, "use integrity constraints (§4.5)")
	flag.Parse()

	if err := run(*appName, *constraints); err != nil {
		fmt.Fprintln(os.Stderr, "dsspanalyze:", err)
		os.Exit(1)
	}
}

func run(appName string, constraints bool) error {
	b, err := apps.ByName(appName)
	if err != nil {
		return err
	}
	app, compulsory := b.App(), b.Compulsory()
	if appName == "toystore" {
		// §2.3's walkthrough caps only the card-number insert; the runnable
		// toystore benchmark additionally caps the zip-code join.
		compulsory = map[string]template.Exposure{"U2": template.ExpTemplate}
	}

	opts := core.Options{UseIntegrityConstraints: constraints}
	a := core.Analyze(app, opts)

	fmt.Printf("Application %s: %d query templates, %d update templates, %d pairs\n\n",
		app.Name, len(app.Queries), len(app.Updates), len(app.Queries)*len(app.Updates))
	fmt.Println("Templates:")
	for _, q := range app.Queries {
		fmt.Printf("  %-4s %s\n", q.ID, q.SQL)
	}
	for _, u := range app.Updates {
		fmt.Printf("  %-4s %s\n", u.ID, u.SQL)
	}

	fmt.Println("\nIPM characterization (per update/query pair):")
	for i, u := range app.Updates {
		for j, q := range app.Queries {
			pa := a.Pairs[i][j]
			note := ""
			if pa.ByConstraint {
				note = "  [by integrity constraint]"
			}
			if pa.Conservative {
				note = "  [conservative: assumption violation]"
			}
			fmt.Printf("  %-4s %-4s %s%s\n", u.ID, q.ID, pa, note)
		}
	}

	c := a.Counts()
	fmt.Printf("\nBucket counts: A=B=C=0: %d | B<A,C<B: %d | B<A,C=B: %d | B=A,C=B: %d | B=A,C<B: %d\n",
		c.AllZero, c.BLessCLess, c.BLessCEq, c.BEqCEq, c.BEqCLess)

	m := core.Methodology{App: app, Compulsory: compulsory, Opts: opts}
	r := m.Run()
	fmt.Println("\nMethodology (Step 1 compulsory caps, then Step 2b reduction):")
	for _, q := range app.Queries {
		fmt.Printf("  %-4s %-8s -> %s\n", q.ID, r.Initial[q.ID], r.Final[q.ID])
	}
	for _, u := range app.Updates {
		fmt.Printf("  %-4s %-8s -> %s\n", u.ID, r.Initial[u.ID], r.Final[u.ID])
	}
	fmt.Printf("\nQuery templates with encrypted results: %d of %d (was %d under compulsory caps alone)\n",
		core.EncryptedResultCount(app, r.Final), len(app.Queries),
		core.EncryptedResultCount(app, r.Initial))
	return nil
}
