package httpapi

import (
	"context"
	"io"
	"net/http"
	"sync"
	"testing"

	"dssp/internal/apps"
)

// TestConcurrentNodeTraffic hammers a deployment with parallel queries,
// updates, and metrics scrapes. Under `go test -race` this is the
// regression test for the seed's unguarded cache maps and home-server
// counters: every HTTP handler runs on its own goroutine, so cache
// lookups, stores, invalidations, and the storage engine race unless the
// cache and home server serialize access themselves. The same workers
// drive a single node and a routed fleet of two nodes over a home tier of
// two partitions with a replica each, where no proxied call may fail.
func TestConcurrentNodeTraffic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(t *testing.T) (client *Client, nodeURLs []string, done func())
	}{
		{"node", func(t *testing.T) (*Client, []string, func()) {
			client, db, done := stack(t, nil)
			seedToys(t, db)
			return client, []string{client.NodeURL}, done
		}},
		{"routed fleet", func(t *testing.T) (*Client, []string, func()) {
			f := startToystore(t, Spec{Nodes: 2, Partitions: 2, Replicas: 1}, nil)
			return f.Client, f.NodeURLs, func() {
				if err := f.Close(); err != nil {
					t.Error(err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, nodeURLs, done := tc.start(t)
			defer done()
			hammer(t, client)

			// The run must also have produced coherent counters.
			total := func(url string, names ...string) int64 {
				snap, err := fetchMetrics(http.DefaultClient, url)
				if err != nil {
					t.Fatal(err)
				}
				var n int64
				for _, m := range snap.Metrics {
					for _, name := range names {
						if m.Name == name {
							n += m.Value
						}
					}
				}
				return n
			}
			var lookups int64
			for _, url := range nodeURLs {
				lookups += total(url, "dssp_cache_hits_total", "dssp_cache_misses_total")
			}
			if lookups == 0 {
				t.Error("no lookups recorded after concurrent run")
			}
			if n := total(client.NodeURL, "dssp_router_proxy_errors_total"); n != 0 {
				t.Errorf("%d proxied calls failed in a healthy deployment", n)
			}
		})
	}
}

// hammer runs the concurrent workers against client's entry point.
func hammer(t *testing.T, client *Client) {
	app := apps.Toystore()
	const (
		workers = 8
		rounds  = 30
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch w % 4 {
				case 0: // point query, cacheable
					if _, err := client.Query(context.Background(), app.Query("Q2"), 1+i%8); err != nil {
						t.Error(err)
						return
					}
				case 1: // name query on another template
					if _, err := client.Query(context.Background(), app.Query("Q1"), "bear"); err != nil {
						t.Error(err)
						return
					}
				case 2: // deletes drive invalidation concurrently with lookups
					if _, _, err := client.Update(context.Background(), app.Update("U1"), 100+w*rounds+i); err != nil {
						t.Error(err)
						return
					}
				case 3: // metrics scrapes read the registry while it mutates
					resp, err := http.Get(client.NodeURL + PathMetrics)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
}
