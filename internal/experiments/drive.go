package experiments

import (
	"context"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dssp/internal/encrypt"
	"dssp/internal/httpapi"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
	"dssp/internal/workload"
)

// fleetSpec describes an HTTP deployment of app under the all-zero demo
// key, every database filled by populate; callers add the topology.
func fleetSpec(app *template.App, populate func(*storage.Database) error) httpapi.Spec {
	return httpapi.Spec{
		App:   app,
		Codec: wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil),
		NewDB: func() (*storage.Database, error) {
			db := storage.NewDatabase(app.Schema)
			return db, populate(db)
		},
	}
}

// benchSpec is fleetSpec for a benchmark application populated from seed.
func benchSpec(b workload.Benchmark, seed int64) httpapi.Spec {
	return fleetSpec(b.App(), func(db *storage.Database) error {
		return b.Populate(db, rand.New(rand.NewSource(seed)))
	})
}

// pooledClient is one HTTP client for a whole fleet, with enough idle
// connections that clients concurrent drivers never churn through
// handshakes.
func pooledClient(clients int) *http.Client {
	return &http.Client{
		Timeout: httpapi.DefaultTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        16 * clients,
			MaxIdleConnsPerHost: 4 * clients,
		},
	}
}

// serviceGate is a Spec.Wrap hook modelling one CPU per server of the
// given roles: each gets one request slot, held for the request path's
// cost; paths without one (metrics, decision reads, registration) pass
// ungated. All fleet sizes run on one machine, so real CPUs cannot scale;
// the gate makes a server's capacity explicit and identical across sizes
// — adding a server adds exactly one slot. The slot is released before
// the real handler runs: a server waiting on its upstream is doing I/O,
// not burning CPU, and must not serialize its other requests. Nothing is
// charged until armed flips, so warm-up runs at full host speed.
func serviceGate(armed *atomic.Bool, costs map[string]time.Duration, roles ...string) func(string, http.Handler) http.Handler {
	return func(role string, inner http.Handler) http.Handler {
		if !slices.Contains(roles, role) {
			return inner
		}
		slot := make(chan struct{}, 1)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if cost, ok := costs[r.URL.Path]; ok && armed.Load() {
				slot <- struct{}{}
				time.Sleep(cost)
				<-slot
			}
			inner.ServeHTTP(w, r)
		})
	}
}

// closedLoop is the experiments' one load driver: clients goroutines
// issuing operations back to back. newClient is called once per client,
// in order and before any traffic, and returns that client's step — one
// operation per call, reporting whether it was an update. The drivers
// warm until warmOps operations have completed; then open runs (arm the
// gate, take the before-readings), operations completing within measure
// are counted, and shut runs (take the after-readings) while the drivers
// are still live — stopping them aborts in-flight requests, which must
// not land in the readings. The first failed step stops everything and
// is returned.
func closedLoop(ctx context.Context, clients, warmOps int, measure time.Duration, open, shut func(),
	newClient func(c int) func(context.Context) (update bool, err error)) (queries, updates int64, elapsed time.Duration, err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		measuring atomic.Bool
		total     atomic.Int64 // every completed op, for warm-up progress
		nQ, nU    atomic.Int64 // ops completed inside the measure window
		failed    sync.Once
		wg        sync.WaitGroup
		steps     = make([]func(context.Context) (bool, error), clients)
	)
	for c := range steps {
		steps[c] = newClient(c)
	}
	for _, step := range steps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				update, stepErr := step(ctx)
				if stepErr != nil {
					if ctx.Err() == nil {
						failed.Do(func() { err = stepErr })
						cancel()
					}
					return
				}
				total.Add(1)
				switch {
				case !measuring.Load():
				case update:
					nU.Add(1)
				default:
					nQ.Add(1)
				}
			}
		}()
	}
	for total.Load() < int64(warmOps) && ctx.Err() == nil {
		time.Sleep(20 * time.Millisecond)
	}
	if ctx.Err() == nil {
		open()
		measuring.Store(true)
		t0 := time.Now()
		select {
		case <-time.After(measure):
		case <-ctx.Done():
		}
		measuring.Store(false)
		elapsed = time.Since(t0)
		shut()
	}
	cancel()
	wg.Wait()
	return nQ.Load(), nU.Load(), elapsed, err
}
