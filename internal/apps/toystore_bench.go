package apps

import (
	"fmt"
	"math/rand"

	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/workload"
)

// SeedToystore inserts the hand-seeded Table 3 toystore that dssphome
// serves (and so the smoke scripts replay against) and the coalescing and
// home-scale storms run on: toys (1,bear,10), (2,truck,3), (3,bear,7) and
// (5,kite,25); customers 1–4, each of the first three with a card on file.
// Customer 4 has none: an insert target for U2 that satisfies both the
// credit_card primary key and its foreign key.
func SeedToystore(db *storage.Database) error {
	iv, sv := sqlparse.IntVal, sqlparse.StringVal
	toys := []struct {
		id   int64
		name string
		qty  int64
	}{{1, "bear", 10}, {2, "truck", 3}, {3, "bear", 7}, {5, "kite", 25}}
	for _, t := range toys {
		if err := db.Insert("toys", storage.Row{iv(t.id), sv(t.name), iv(t.qty)}); err != nil {
			return err
		}
	}
	for i := int64(1); i <= 4; i++ {
		if err := db.Insert("customers", storage.Row{iv(i), sv(fmt.Sprintf("cust%d", i))}); err != nil {
			return err
		}
		if i <= 3 {
			if err := db.Insert("credit_card", storage.Row{iv(i), sv("4111"), sv("15213")}); err != nil {
				return err
			}
		}
	}
	return nil
}

// ToystoreBench drives the Table 3 toystore as a runnable benchmark, so
// the paper's running example works everywhere the three §5.1
// applications do (simulator, leakage audit, CI smoke runs). Sessions
// browse by toy name, check stock, and look customers up by zip code;
// an occasional checkout inserts a credit card, so the update stream
// exercises invalidation without ever draining the seeded data (no U1
// deletes).
type ToystoreBench struct {
	app *template.App

	numToys, numCustomers int
	numCards              int // customers seeded with a card on file

	// nextCard walks the customers without a seeded card: cid is both
	// the primary key of credit_card and a foreign key to customers, so
	// each insert must pick a fresh, existing customer.
	nextCard int64
}

// NewToystoreBench builds the benchmark at its default scale.
func NewToystoreBench() *ToystoreBench {
	return &ToystoreBench{app: Toystore(), numToys: 200, numCustomers: 2000, numCards: 100}
}

// Name implements workload.Benchmark.
func (t *ToystoreBench) Name() string { return "toystore" }

// App implements workload.Benchmark.
func (t *ToystoreBench) App() *template.App { return t.app }

// Compulsory implements workload.Benchmark: credit-card data is the
// toystore's highly sensitive data (§2.3's running example).
func (t *ToystoreBench) Compulsory() map[string]template.Exposure {
	return map[string]template.Exposure{
		"Q3": template.ExpStmt,     // zip-code lookup joins credit_card
		"U2": template.ExpTemplate, // card number in the parameters
	}
}

// Populate implements workload.Benchmark.
func (t *ToystoreBench) Populate(db *storage.Database, rng *rand.Rand) error {
	iv, sv := sqlparse.IntVal, sqlparse.StringVal
	for i := 1; i <= t.numToys; i++ {
		if err := db.Insert("toys", storage.Row{
			iv(int64(i)), sv(fmt.Sprintf("toy%d", i)), iv(int64(1 + rng.Intn(50))),
		}); err != nil {
			return err
		}
	}
	for c := 1; c <= t.numCustomers; c++ {
		if err := db.Insert("customers", storage.Row{
			iv(int64(c)), sv(fmt.Sprintf("customer%d", c)),
		}); err != nil {
			return err
		}
		if c <= t.numCards {
			if err := db.Insert("credit_card", storage.Row{
				iv(int64(c)), sv(fmt.Sprintf("4000-%08d", c)), sv(t.zip(rng.Intn(20))),
			}); err != nil {
				return err
			}
		}
	}
	t.nextCard = int64(t.numCards)
	for tab, col := range map[string]string{"toys": "toy_name", "credit_card": "zip_code"} {
		if err := db.Table(tab).CreateIndex(col); err != nil {
			return err
		}
	}
	return nil
}

// zip draws from a small pool so zip-code lookups actually match rows.
func (t *ToystoreBench) zip(i int) string { return fmt.Sprintf("9%04d", i) }

// NewSession implements workload.Benchmark.
func (t *ToystoreBench) NewSession(rng *rand.Rand) workload.Session {
	return &toystoreSession{b: t, rng: rng}
}

type toystoreSession struct {
	b   *ToystoreBench
	rng *rand.Rand
}

// toy picks a toy with a hot set: most traffic goes to a few popular
// toys, so the cache has something to win.
func (s *toystoreSession) toy() int {
	if s.rng.Intn(100) < 80 {
		return 1 + s.rng.Intn(10)
	}
	return 1 + s.rng.Intn(s.b.numToys)
}

// NextPage implements workload.Session.
func (s *toystoreSession) NextPage() []workload.Op {
	b := s.b
	iv, sv := sqlparse.IntVal, sqlparse.StringVal
	toy := s.toy()
	page := []workload.Op{
		{Template: b.app.Query("Q1"), Params: []sqlparse.Value{sv(fmt.Sprintf("toy%d", toy))}},
		{Template: b.app.Query("Q2"), Params: []sqlparse.Value{iv(int64(toy))}},
		{Template: b.app.Query("Q3"), Params: []sqlparse.Value{sv(b.zip(s.rng.Intn(20)))}},
	}
	if s.rng.Intn(10) == 0 && b.nextCard < int64(b.numCustomers) {
		// Checkout: the next cardless customer puts a card on file.
		b.nextCard++
		page = append(page, workload.Op{Template: b.app.Update("U2"), Params: []sqlparse.Value{
			iv(b.nextCard),
			sv(fmt.Sprintf("4000-%08d", b.nextCard)),
			sv(b.zip(s.rng.Intn(20))),
		}})
	}
	return page
}
