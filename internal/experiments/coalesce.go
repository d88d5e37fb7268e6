package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dssp/internal/apps"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/shard"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// CoalescePoint is one mode's measurement of the hot-key miss storm.
type CoalescePoint struct {
	Mode      string
	HomeExecs int // home-server query executions across all epochs
	Coalesced int // misses that joined an in-flight fetch instead
}

// CoalesceResult compares the miss storm a hot key suffers after each
// invalidation with and without single-flight coalescing: every client
// misses at once, and without coalescing each miss becomes its own
// home-server execution — the home server (the shared bottleneck the DSSP
// exists to offload, §1) absorbs O(clients) identical queries per
// invalidation epoch. Coalescing collapses them to O(1).
type CoalesceResult struct {
	Clients int
	Epochs  int
	Points  []CoalescePoint
}

// Coalesce runs the hot-key miss storm in both modes. Each epoch
// invalidates the hot template bucket (a template-level update the DSSP
// cannot inspect further) and then fires all clients at the same hot
// query concurrently; a small home-side delay makes the misses overlap,
// as a WAN hop does in Figure 1.
func Coalesce(clients, epochs int) (*CoalesceResult, error) {
	res := &CoalesceResult{Clients: clients, Epochs: epochs}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"coalesced", false}, {"uncoalesced", true}} {
		c, err := stormClient(mode.disable, 2*time.Millisecond)
		if err != nil {
			return nil, err
		}
		q1, u1 := c.Node.App.Query("Q1"), c.Node.App.Update("U1")
		before := c.Home.QueriesServed()
		for e := 0; e < epochs; e++ {
			if e > 0 {
				// U1 deletes nothing (no toy 999) but its completion drops
				// the Q1 bucket at template inspection level.
				if _, _, err := c.Update(u1, 999); err != nil {
					return nil, err
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			start := make(chan struct{})
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if _, err := c.Query(q1, "bear"); err != nil {
						errs <- err
					}
				}()
			}
			close(start)
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				return nil, err
			}
		}
		res.Points = append(res.Points, CoalescePoint{
			Mode:      mode.name,
			HomeExecs: c.Home.QueriesServed() - before,
			Coalesced: int(c.Tracer.Registry().Counter(obs.MCoalescedMisses).Value()),
		})
	}
	return res, nil
}

// stormClient is the in-process deployment the miss storm runs on: the
// seeded toystore behind a home-side delay that makes concurrent misses
// overlap, as a WAN hop does in Figure 1, with coalescing on or off.
func stormClient(disableCoalescing bool, homeDelay time.Duration) (*dssp.Client, error) {
	app := apps.Toystore()
	// Template-level exposure: the invalidation is a whole-bucket drop and
	// the cache key is a deterministic digest — coalescing must work
	// without reading either.
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), map[string]template.Exposure{
		"Q1": template.ExpTemplate,
		"U1": template.ExpTemplate,
	})
	db := storage.NewDatabase(app.Schema)
	if err := seedToys(db); err != nil {
		return nil, err
	}
	c := dssp.NewClient(app, codec, db)
	c.Front = shard.PipeBackend{Pipe: pipeline.New(c.Node, pipeline.WithDelay(pipeline.NewDirectTransport(c.Home), homeDelay), c.Tracer,
		pipeline.Options{DisableCoalescing: disableCoalescing})}
	return c, nil
}

// seedToys inserts the toystore ground truth used by the examples.
func seedToys(db *storage.Database) error {
	rows := []struct {
		id   int64
		name string
		qty  int64
	}{{1, "bear", 10}, {2, "truck", 3}, {3, "bear", 4}, {5, "kite", 25}}
	for _, r := range rows {
		if err := db.Insert("toys", storage.Row{
			sqlparse.IntVal(r.id), sqlparse.StringVal(r.name), sqlparse.IntVal(r.qty),
		}); err != nil {
			return err
		}
	}
	return nil
}

// Format renders the comparison.
func (r *CoalesceResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Single-flight miss coalescing: toystore hot key, %d clients x %d invalidation epochs\n", r.Clients, r.Epochs)
	b.WriteString("(home-server executions of the hot query; lower = less load on the shared bottleneck)\n\n")
	rows := [][]string{{"Mode", "HomeExecs", "CoalescedMisses"}}
	for _, p := range r.Points {
		rows = append(rows, []string{p.Mode, fmt.Sprint(p.HomeExecs), fmt.Sprint(p.Coalesced)})
	}
	table(&b, rows)
	return b.String()
}
