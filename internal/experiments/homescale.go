package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dssp/internal/apps"
	"dssp/internal/httpapi"
	"dssp/internal/obs"
	"dssp/internal/schema"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
)

// HomescaleOptions configures the replicated-home-tier throughput
// experiment.
type HomescaleOptions struct {
	// Replicas lists the replica counts to measure, e.g. {0, 2, 4}.
	// 0 is the single-home baseline every speedup is relative to.
	Replicas []int

	// Clients is the number of closed-loop driver goroutines.
	Clients int

	// Service is the modelled CPU cost of one statement execution in the
	// trusted tier. Primary and replicas each hold a single service slot
	// for this long per executed statement, so one host measures the tier
	// honestly: adding a replica adds exactly one slot. Replica applies
	// cost a tenth — replaying a confirmed update is cheaper than opening
	// and executing a fresh statement.
	Service time.Duration

	// UpdateEvery issues one update per this many operations, so the
	// confirmed stream, the freshness floor, and replica lag are all live
	// during the measurement.
	UpdateEvery int

	// WarmOps runs ungated before the counted window (connection and
	// session warm-up; the miss storm itself is uncacheable).
	WarmOps int

	// Measure is the counted window.
	Measure time.Duration

	// Seed drives data population and the drivers.
	Seed int64

	// Partitions lists the partition counts for the update-heavy write
	// sweep, e.g. {1, 2, 4}. 1 is the single-master baseline every
	// speedup is relative to.
	Partitions []int
}

// DefaultHomescaleOptions returns the committed BENCH_homescale.json
// configuration.
func DefaultHomescaleOptions() HomescaleOptions {
	return HomescaleOptions{
		Replicas:    []int{0, 2, 4},
		Clients:     32,
		Service:     3 * time.Millisecond,
		UpdateEvery: 40,
		WarmOps:     2000,
		Measure:     6 * time.Second,
		Seed:        1,
		Partitions:  []int{1, 2, 4},
	}
}

// HomescaleRow is one replica count's measurement.
type HomescaleRow struct {
	Replicas int     `json:"replicas"`
	Queries  int64   `json:"queries"`
	Updates  int64   `json:"updates"`
	MissQPS  float64 `json:"miss_qps"`
	Speedup  float64 `json:"speedup_vs_0"`

	// PrimaryMisses counts the misses the primary executed (all of them
	// at K=0; bypasses and probe fallbacks at K>0). ReplicaMisses breaks
	// down the misses each replica served.
	PrimaryMisses int64   `json:"primary_misses"`
	ReplicaMisses []int64 `json:"replica_misses"`

	// BypassLag and BypassErr count misses bounced to the primary because
	// the selected replica lagged the node's freshness floor or failed.
	BypassLag int64 `json:"bypass_lag"`
	BypassErr int64 `json:"bypass_err"`

	// MaxLag is the largest confirmed-minus-applied gap observed across
	// replicas while measuring (sampled); Confirmed is the stream's final
	// high-water mark.
	MaxLag    uint64 `json:"max_replica_lag"`
	Confirmed uint64 `json:"confirmed_seq"`
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
	Confirmed []uint64 `json:"confirmed_seqs"`
}

// HomescaleResult is the full sweep: the replicated read sweep and the
// partitioned write sweep.
type HomescaleResult struct {
	Benchmark   string         `json:"benchmark"`
	Clients     int            `json:"clients"`
	Service     time.Duration  `json:"service_per_op_ns"`
	UpdateEvery int            `json:"update_every"`
	Measure     time.Duration  `json:"measure_ns"`
	Rows        []HomescaleRow `json:"results"`

	// UpdateRows is the update-heavy workload at increasing partition
	// counts: every operation is an update, so throughput measures how
	// much write capacity partitioning the master adds.
	UpdateRows []HomescaleUpdateRow `json:"update_heavy"`
}

// Homescale measures trusted-tier miss throughput as read replicas are
// added. The workload is a deliberate worst case for the cache tier: every
// query asks for a row that does not exist, and the no-empty-results
// policy keeps such results out of the cache — so every operation is a
// miss that must execute in the trusted tier. With the primary and each
// replica capacity-gated to one service slot, the aggregate miss
// throughput measures how much execution capacity the replica tier adds,
// while a live update stream keeps the freshness floor moving under it.
func Homescale(o HomescaleOptions) (*HomescaleResult, error) {
	if len(o.Replicas) == 0 {
		o = DefaultHomescaleOptions()
	}
	res := &HomescaleResult{
		Benchmark:   "toystore-miss-storm",
		Clients:     o.Clients,
		Service:     o.Service,
		UpdateEvery: o.UpdateEvery,
		Measure:     o.Measure,
	}
	for _, k := range o.Replicas {
		row, err := runHomescale(k, o)
		if err != nil {
			return nil, fmt.Errorf("replicas=%d: %w", k, err)
		}
		if len(res.Rows) > 0 && res.Rows[0].Replicas == 0 && res.Rows[0].MissQPS > 0 {
			row.Speedup = row.MissQPS / res.Rows[0].MissQPS
		} else if k == 0 {
			row.Speedup = 1
		}
		res.Rows = append(res.Rows, row)
	}
	for _, parts := range o.Partitions {
		row, err := runHomescaleUpdates(parts, o)
		if err != nil {
			return nil, fmt.Errorf("partitions=%d: %w", parts, err)
		}
		if len(res.UpdateRows) > 0 && res.UpdateRows[0].Partitions == 1 && res.UpdateRows[0].UpdateQPS > 0 {
			row.Speedup = row.UpdateQPS / res.UpdateRows[0].UpdateQPS
		} else if parts == 1 {
			row.Speedup = 1
		}
		res.UpdateRows = append(res.UpdateRows, row)
	}
	return res, nil
}

// tierGate is the trusted-tier capacity gate: one service slot per
// engine, charged per executed statement. Apply pushes cost a tenth —
// replaying a confirmed update is cheaper than opening and executing a
// fresh statement.
func tierGate(service time.Duration, armed *atomic.Bool) func(string, http.Handler) http.Handler {
	return serviceGate(armed, map[string]time.Duration{
		httpapi.PathExecQuery:    service,
		httpapi.PathExecUpdate:   service,
		httpapi.PathReplicaApply: service / 10,
	}, httpapi.RoleHome, httpapi.RoleReplica)
}

func runHomescale(k int, o HomescaleOptions) (HomescaleRow, error) {
	row := HomescaleRow{Replicas: k}
	app := apps.Toystore()
	var gateArmed atomic.Bool
	spec := fleetSpec(app, seedToys)
	spec.Nodes, spec.Replicas, spec.Client = 1, k, pooledClient(o.Clients)
	spec.Wrap = tierGate(o.Service, &gateArmed)
	f, err := httpapi.Start(spec)
	if err != nil {
		return row, err
	}
	defer f.Close()
	primary, reps, nodeReg := f.Homes[0], f.Replicas[0], f.Nodes[0].Cache.Obs()

	// served reads where misses executed: the primary, then each replica;
	// bypasses the node's lag and error bounces.
	served := func() []int64 {
		n := []int64{int64(primary.QueriesServed())}
		for _, rep := range reps {
			n = append(n, int64(rep.QueriesServed()))
		}
		return n
	}
	bypasses := func(reason string) int64 {
		return nodeReg.Counter(obs.MHomeReplicaBypasses, obs.L(obs.LReason, reason)).Value()
	}
	var (
		preServed      []int64
		preLag, preErr int64
		sampler        sync.WaitGroup
		stopSampler    = make(chan struct{})
	)
	open := func() {
		preServed, preLag, preErr = served(), bypasses("lag"), bypasses("error")
		gateArmed.Store(true)
		// Lag sampler: the widest confirmed-minus-applied gap any replica
		// shows during the counted window.
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
				}
				c := primary.ConfirmedSeq()
				for _, rep := range reps {
					if a := rep.Applied(); c > a {
						row.MaxLag = max(row.MaxLag, c-a)
					}
				}
			}
		}()
	}
	shut := func() {
		close(stopSampler)
		sampler.Wait()
		post := served()
		row.PrimaryMisses = post[0] - preServed[0]
		row.ReplicaMisses = make([]int64, k)
		for i := range reps {
			row.ReplicaMisses[i] = post[1+i] - preServed[1+i]
		}
		row.BypassLag, row.BypassErr = bypasses("lag")-preLag, bypasses("error")-preErr
	}

	// The miss storm: every query probes a toy id far outside the seeded
	// range, so the result is empty, uncacheable under no-empty-results,
	// and must execute in the trusted tier. One op in UpdateEvery is an
	// update (a delete of an equally non-existent id: zero rows affected,
	// but a real confirmed sequence that moves the freshness floor).
	var elapsed time.Duration
	row.Queries, row.Updates, elapsed, err = closedLoop(context.Background(), o.Clients, o.WarmOps, o.Measure, open, shut,
		func(c int) func(context.Context) (bool, error) {
			rng := rand.New(rand.NewSource(o.Seed + 2000 + int64(c)))
			i := 0
			return func(ctx context.Context) (bool, error) {
				id := 1_000_000 + rng.Intn(1_000_000_000)
				i++
				if o.UpdateEvery > 0 && i%o.UpdateEvery == 0 {
					_, _, err := f.Client.Update(ctx, app.Update("U1"), id)
					return true, err
				}
				_, err := f.Client.Query(ctx, app.Query("Q2"), id)
				return false, err
			}
		})
	if err != nil {
		return row, err
	}
	row.MissQPS = float64(row.Queries) / elapsed.Seconds()
	row.Confirmed = primary.ConfirmedSeq()
	return row, nil
}

// wideshopApp returns a synthetic application with groups independent
// single-table groups, each carrying one query and one update template.
// The toystore only partitions two ways (toys vs the FK-joined
// customers/credit_card pair), so the write-scaling sweep past two
// partitions needs an application whose update stream splits four ways.
func wideshopApp(groups int) *template.App {
	s := schema.New()
	var queries, updates []*template.Template
	for g := 0; g < groups; g++ {
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
		Name:    fmt.Sprintf("wideshop%d", groups),
		Schema:  s,
		Queries: queries,
		Updates: updates,
	}
}

// runHomescaleUpdates measures write throughput at one partition count.
// Every operation is an update, spread uniformly over the wideshop's four
// independent table groups; each partition master is capacity-gated to
// one service slot, so aggregate update throughput measures how much
// serialization capacity splitting the master adds. Updates delete ids
// outside the seeded range — zero rows affected, but each one acquires
// its partition's write lock, takes a real confirmed sequence, and runs
// the full monitoring pathway.
func runHomescaleUpdates(parts int, o HomescaleOptions) (HomescaleUpdateRow, error) {
	row := HomescaleUpdateRow{Partitions: parts}
	const groups = 4
	app := wideshopApp(groups)
	var gateArmed atomic.Bool
	spec := fleetSpec(app, func(db *storage.Database) error {
		for g := 0; g < groups; g++ {
			for id := int64(1); id <= 4; id++ {
				item := storage.Row{sqlparse.IntVal(id), sqlparse.IntVal(id)}
				if err := db.Insert(fmt.Sprintf("shelf%d", g), item); err != nil {
					return err
				}
			}
		}
		return nil
	})
	spec.Nodes, spec.Partitions, spec.Client = 1, parts, pooledClient(o.Clients)
	spec.Wrap = tierGate(o.Service, &gateArmed)
	f, err := httpapi.Start(spec)
	if err != nil {
		return row, err
	}
	defer f.Close()

	var elapsed time.Duration
	_, row.Updates, elapsed, err = closedLoop(context.Background(), o.Clients, o.WarmOps, o.Measure,
		func() { gateArmed.Store(true) }, func() {},
		func(c int) func(context.Context) (bool, error) {
			rng := rand.New(rand.NewSource(o.Seed + 3000 + int64(c)))
			return func(ctx context.Context) (bool, error) {
				g := rng.Intn(groups)
				id := 1_000_000 + rng.Intn(1_000_000_000)
				_, _, err := f.Client.Update(ctx, app.Update(fmt.Sprintf("U%d", g)), id)
				return true, err
			}
		})
	if err != nil {
		return row, err
	}
	row.UpdateQPS = float64(row.Updates) / elapsed.Seconds()
	row.Confirmed = make([]uint64, parts)
	for p, h := range f.Homes {
		row.Confirmed[p] = h.ConfirmedSeq()
		if row.Confirmed[p] == 0 {
			return row, fmt.Errorf("partition %d confirmed no update; the write stream did not split", p)
		}
	}
	return row, nil
}

// Format renders the sweep: miss throughput and speedup per replica
// count, where each miss went, and how the staleness protocol behaved.
func (r *HomescaleResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Home scale-out: %s, %d closed-loop clients, %v service slot per trusted engine, 1 update per %d ops\n",
		r.Benchmark, r.Clients, r.Service, r.UpdateEvery)
	rows := [][]string{{"replicas", "miss qps", "speedup", "primary", "per-replica misses", "bypass lag/err", "max lag", "confirmed"}}
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
			fmt.Sprintf("%.0f", row.MissQPS),
			fmt.Sprintf("%.2fx", row.Speedup),
			fmt.Sprintf("%d", row.PrimaryMisses),
			perStr,
			fmt.Sprintf("%d/%d", row.BypassLag, row.BypassErr),
			fmt.Sprintf("%d", row.MaxLag),
			fmt.Sprintf("%d", row.Confirmed),
		})
	}
	table(&b, rows)
	b.WriteString("Every query misses (empty results are uncacheable), so miss qps is the trusted\n" +
		"tier's execution throughput; bypasses are misses bounced to the primary by the\n" +
		"freshness floor; max lag is the widest confirmed-minus-applied gap sampled.\n")
	if len(r.UpdateRows) > 0 {
		fmt.Fprintf(&b, "\nPartitioned-master write scaling: wideshop4 (four independent table groups), "+
			"every op an update, one %v service slot per partition master\n", r.Service)
		rows := [][]string{{"partitions", "update qps", "speedup", "confirmed per partition"}}
		for _, row := range r.UpdateRows {
			var per []string
			for _, c := range row.Confirmed {
				per = append(per, fmt.Sprintf("%d", c))
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", row.Partitions),
				fmt.Sprintf("%.0f", row.UpdateQPS),
				fmt.Sprintf("%.2fx", row.Speedup),
				strings.Join(per, " "),
			})
		}
		table(&b, rows)
		b.WriteString("Each partition master serializes only its own table groups' updates, so the\n" +
			"write stream splits across independent locks and sequence streams; confirmed\n" +
			"counts per partition show the split is real, not one master doing the work.\n")
	}
	return b.String()
}
