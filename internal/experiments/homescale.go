package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dssp/internal/apps"
	"dssp/internal/obs"
	"dssp/internal/schema"
	"dssp/internal/simrun"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/workload"
)

// The committed BENCH_homescale.json configuration: 32 clients issuing
// statements back to back at one node, in front of a trusted tier whose
// every engine — primary, replica or partition master — is one CPU that
// spends 3 ms on every statement it executes.
const (
	homescaleClients     = 32
	homescaleRun         = 30 * time.Second
	homescaleService     = 3 * time.Millisecond
	homescaleUpdateEvery = 40
	wideshopGroups       = 4
)

var (
	homescaleReplicas   = []int{0, 2, 4}
	homescalePartitions = []int{1, 2, 4}
)

// HomescaleRow is one replica count's measurement.
type HomescaleRow struct {
	Replicas int     `json:"replicas"`
	Queries  int64   `json:"queries"`
	Updates  int64   `json:"updates"`
	MissQPS  float64 `json:"miss_qps"`
	Speedup  float64 `json:"speedup_vs_0"`

	// PrimaryMisses counts the misses the primary executed (all of them
	// at K=0); ReplicaMisses breaks down the misses each replica served.
	PrimaryMisses int64   `json:"primary_misses"`
	ReplicaMisses []int64 `json:"replica_misses"`

	// Confirmed is the primary's confirmed sequence at the end of the run.
	Confirmed int64 `json:"confirmed_seq"`
}

// HomescaleUpdateRow is one partition count's write-throughput
// measurement from the update-heavy sweep.
type HomescaleUpdateRow struct {
	Partitions int     `json:"partitions"`
	Updates    int64   `json:"updates"`
	UpdateQPS  float64 `json:"update_qps"`
	Speedup    float64 `json:"speedup_vs_1"`

	// Confirmed is each partition master's final confirmed sequence — the
	// length of its independent serialization order. Every entry being
	// non-zero at P>1 is what shows the write stream really split.
	Confirmed []int64 `json:"confirmed_seqs"`
}

// HomescaleResult is the full sweep: the replicated read sweep and the
// partitioned write sweep.
type HomescaleResult struct {
	Benchmark   string         `json:"benchmark"`
	Clients     int            `json:"clients"`
	Service     time.Duration  `json:"service_per_op_ns"`
	UpdateEvery int            `json:"update_every"`
	Run         time.Duration  `json:"virtual_run_ns"`
	Rows        []HomescaleRow `json:"results"`

	// UpdateRows is the update-heavy workload at increasing partition
	// counts: every operation is an update, so throughput measures how
	// much write capacity partitioning the master adds.
	UpdateRows []HomescaleUpdateRow `json:"update_heavy"`
}

// homescaleCosts makes every trusted engine one 3 ms service slot and the
// node wide and free, so the trusted tier is the run's only bottleneck.
func homescaleCosts() workload.CostModel {
	return workload.CostModel{
		HomeCapacity:   1,
		HomeQueryBase:  homescaleService,
		HomeUpdateCost: homescaleService,
		DSSPCapacity:   homescaleClients,
	}
}

// Homescale measures the trusted tier's capacity as it grows, on the
// simulator's run of each topology. The read sweep adds replicas behind
// the primary under a miss storm: every query asks for a row that does not
// exist, and empty results are never cached, so every query executes in
// the trusted tier while a live update stream keeps the freshness floor
// moving. The write sweep splits the master into partitions under a
// stream of updates only. The run is deterministic for a seed.
func Homescale(seed int64) (*HomescaleResult, error) {
	res := &HomescaleResult{
		Benchmark:   "toystore-miss-storm",
		Clients:     homescaleClients,
		Service:     homescaleService,
		UpdateEvery: homescaleUpdateEvery,
		Run:         homescaleRun,
	}
	toystore := apps.Toystore()
	reads := &storm{name: res.Benchmark, app: toystore, populate: apps.SeedToystore,
		next: func(rng *rand.Rand, i int) workload.Op {
			if i%homescaleUpdateEvery == 0 {
				return absent(toystore.Update("U1"), rng)
			}
			return absent(toystore.Query("Q2"), rng)
		}}
	for _, k := range homescaleReplicas {
		cfg := shapeConfig(reads, homescaleClients, homescaleRun, homescaleCosts(), seed)
		cfg.HomeReplicas = k
		r, err := simrun.Simulate(cfg)
		if err != nil {
			return nil, fmt.Errorf("replicas=%d: %w", k, err)
		}
		row := HomescaleRow{
			Replicas:      k,
			Queries:       requests(r, obs.KindQuery),
			Updates:       requests(r, obs.KindUpdate),
			PrimaryMisses: int64(r.HomeQueries),
			ReplicaMisses: make([]int64, k),
			Confirmed:     int64(r.HomeUpdates),
		}
		row.MissQPS = float64(row.Queries) / homescaleRun.Seconds()
		for i := range row.ReplicaMisses {
			row.ReplicaMisses[i] = counter(r, obs.MHomeReplicaMisses, obs.LReplica, fmt.Sprint(i))
		}
		res.Rows = append(res.Rows, row)
	}
	for i := range res.Rows {
		res.Rows[i].Speedup = res.Rows[i].MissQPS / res.Rows[0].MissQPS
	}

	shop := wideshopApp()
	groups := template.AppGroups(shop)
	writes := &storm{name: shop.Name, app: shop, populate: populateWideshop,
		next: func(rng *rand.Rand, _ int) workload.Op { return absent(shop.Updates[rng.Intn(len(shop.Updates))], rng) }}
	for _, parts := range homescalePartitions {
		cfg := shapeConfig(writes, homescaleClients, homescaleRun, homescaleCosts(), seed)
		cfg.HomePartitions = parts
		r, err := simrun.Simulate(cfg)
		if err != nil {
			return nil, fmt.Errorf("partitions=%d: %w", parts, err)
		}
		row := HomescaleUpdateRow{Partitions: parts, Updates: requests(r, obs.KindUpdate), Confirmed: make([]int64, parts)}
		row.UpdateQPS = float64(row.Updates) / homescaleRun.Seconds()
		for _, u := range shop.Updates {
			p := schema.PartitionOf(template.GroupOf(groups, u), parts)
			row.Confirmed[p] += counter(r, obs.MHomeUpdates, obs.LTemplate, u.ID)
		}
		res.UpdateRows = append(res.UpdateRows, row)
	}
	for i := range res.UpdateRows {
		res.UpdateRows[i].Speedup = res.UpdateRows[i].UpdateQPS / res.UpdateRows[0].UpdateQPS
	}
	return res, nil
}

// counter reads the run's counter name{label=value}, 0 when it was never
// registered.
func counter(r *simrun.Result, name, label, value string) int64 {
	if m := r.Metrics.Find(name, map[string]string{label: value}); m != nil {
		return m.Value
	}
	return 0
}

// storm is a synthetic workload.Benchmark whose every page is one
// statement: next picks a session's i-th (counted from 1).
type storm struct {
	name     string
	app      *template.App
	populate func(*storage.Database) error
	next     func(rng *rand.Rand, i int) workload.Op
}

func (s *storm) Name() string                                      { return s.name }
func (s *storm) App() *template.App                                { return s.app }
func (s *storm) Compulsory() map[string]template.Exposure          { return nil }
func (s *storm) Populate(db *storage.Database, _ *rand.Rand) error { return s.populate(db) }
func (s *storm) NewSession(rng *rand.Rand) workload.Session        { return &stormSession{storm: s, rng: rng} }

type stormSession struct {
	*storm
	rng *rand.Rand
	i   int
}

func (s *stormSession) NextPage() []workload.Op {
	s.i++
	return []workload.Op{s.next(s.rng, s.i)}
}

// absent is t on an id far outside the populated range: a query's result
// is empty and so never cached, and an update affects no row but still
// takes a confirmed sequence and runs the whole monitoring pathway.
func absent(t *template.Template, rng *rand.Rand) workload.Op {
	return workload.Op{Template: t, Params: []sqlparse.Value{sqlparse.IntVal(1_000_000 + rng.Int63n(1_000_000_000))}}
}

// wideshopApp returns a synthetic application with wideshopGroups
// independent single-table groups, each carrying one query and one update
// template. The toystore only partitions two ways (toys vs the FK-joined
// customers/credit_card pair), so the write-scaling sweep past two
// partitions needs an application whose update stream splits four ways.
func wideshopApp() *template.App {
	s := schema.New()
	var queries, updates []*template.Template
	for g := 0; g < wideshopGroups; g++ {
		tab := fmt.Sprintf("shelf%d", g)
		s.MustAddTable(tab, []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "qty", Type: schema.TInt},
		}, "id")
		queries = append(queries, template.MustNew(fmt.Sprintf("Q%d", g), s,
			fmt.Sprintf("SELECT qty FROM %s WHERE id=?", tab)))
		updates = append(updates, template.MustNew(fmt.Sprintf("U%d", g), s,
			fmt.Sprintf("DELETE FROM %s WHERE id=?", tab)))
	}
	return &template.App{
		Name:    fmt.Sprintf("wideshop%d", wideshopGroups),
		Schema:  s,
		Queries: queries,
		Updates: updates,
	}
}

// populateWideshop stocks every shelf of wideshopApp() with ids 1–4.
func populateWideshop(db *storage.Database) error {
	for g := 0; g < wideshopGroups; g++ {
		for id := int64(1); id <= 4; id++ {
			item := storage.Row{sqlparse.IntVal(id), sqlparse.IntVal(id)}
			if err := db.Insert(fmt.Sprintf("shelf%d", g), item); err != nil {
				return err
			}
		}
	}
	return nil
}

// Format renders the sweep: miss throughput and speedup per replica
// count and where each miss executed, then write throughput per
// partition count.
func (r *HomescaleResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Home scale-out: %s, %d back-to-back clients, %v service slot per trusted engine, 1 update per %d ops, %v virtual\n",
		r.Benchmark, r.Clients, r.Service, r.UpdateEvery, r.Run)
	rows := [][]string{{"replicas", "miss qps", "speedup", "primary", "per-replica misses", "confirmed"}}
	for _, row := range r.Rows {
		var per []string
		for _, m := range row.ReplicaMisses {
			per = append(per, fmt.Sprintf("%d", m))
		}
		perStr := strings.Join(per, " ")
		if perStr == "" {
			perStr = "-"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Replicas),
			fmt.Sprintf("%.1f", row.MissQPS),
			fmt.Sprintf("%.2fx", row.Speedup),
			fmt.Sprintf("%d", row.PrimaryMisses),
			perStr,
			fmt.Sprintf("%d", row.Confirmed),
		})
	}
	table(&b, rows)
	b.WriteString("Every query misses (empty results are uncacheable), so miss qps is the trusted\n" +
		"tier's execution throughput.\n")
	fmt.Fprintf(&b, "\nPartitioned-master write scaling: wideshop%d (%d independent table groups), "+
		"every op an update, one %v service slot per partition master\n", wideshopGroups, wideshopGroups, r.Service)
	rows = [][]string{{"partitions", "update qps", "speedup", "confirmed per partition"}}
	for _, row := range r.UpdateRows {
		var per []string
		for _, c := range row.Confirmed {
			per = append(per, fmt.Sprintf("%d", c))
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Partitions),
			fmt.Sprintf("%.1f", row.UpdateQPS),
			fmt.Sprintf("%.2fx", row.Speedup),
			strings.Join(per, " "),
		})
	}
	table(&b, rows)
	b.WriteString("Each partition master serializes only its own table groups' updates, so the\n" +
		"write stream splits across independent locks and sequence streams; confirmed\n" +
		"counts per partition show the split is real, not one master doing the work.\n")
	return b.String()
}
