// Command dsspnode runs an untrusted DSSP caching node for one
// application: it serves sealed queries from its cache, forwards misses
// and updates to the home server, and invalidates on completed updates.
// The node holds no keys — it only ever sees what the application's
// exposure assignment reveals.
//
// The node exposes GET /v1/metrics: per-template cache hit/miss and
// invalidation counters plus per-stage latency histograms, as JSON or
// (with ?format=prom) the Prometheus text format.
//
// The node finds its place in the deployment's topology file (-topology,
// the one description every fleet binary reads; its format is
// httpapi.Topology) by its own base URL, -as, and listens on that URL's
// port. It fronts the trusted tier the file describes — updates go to the
// owning partition's primary, misses spread across that partition's
// replicas — and labels its spans with its position in the file's nodes.
// A node the file does not list is a spare: it serves, but owns nothing
// until the router admits it with a ring join.
//
// On SIGTERM/SIGINT the node stops taking connections and answers the
// frames in flight before it exits.
//
// Usage:
//
//	dsspnode -topology fleet.json -as http://localhost:8400
//	dsspnode -topology fleet.json -as http://localhost:8400 -capacity 100000
//	dsspnode -topology fleet.json -as http://localhost:8400 -pprof localhost:6060
package main

import (
	"flag"
	"log/slog"
	"os"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/httpapi"
)

func main() {
	topology := flag.String("topology", "", "the deployment's topology file (JSON, httpapi.Topology)")
	as := flag.String("as", "", "this node's base URL: one of the topology's nodes, or a spare a ring join admits later")
	capacity := flag.Int("capacity", 0, "cache capacity in entries (0 = unbounded); when full, entries not hit since they were stored go first, and dssp_cache_ghost_readmits_total counts the misses a slightly larger cache would have served")
	monitor := flag.Duration("monitor-interval", 0, "batch invalidation per monitoring interval (0 = invalidate inline per update)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("proc", "dsspnode")
	t, role, err := httpapi.LoadTopology(*topology, httpapi.KindNode, *as)
	if err != nil {
		logger.Error("bad topology", "err", err)
		os.Exit(2)
	}
	if role.NodeID != "" {
		logger = logger.With("node", role.NodeID)
	}
	b, _ := apps.ByName(t.App) // LoadTopology validated the name
	app := b.App()
	analysis := core.Analyze(app, core.DefaultOptions())
	node := dssp.NewNode(app, analysis, cache.Options{Capacity: *capacity})
	srv := httpapi.NewNodeServerWithOptions(node, "", nil, httpapi.NodeOptions{
		MonitorInterval: *monitor,
		NodeID:          role.NodeID,
		Home:            t.Home,
	})

	httpapi.ServePprof(logger, *pprofAddr)
	logger.Info("DSSP node listening",
		"app", app.Name, "as", *as, "home_partitions", len(t.Home),
		"capacity", *capacity, "monitor_interval", *monitor,
		"metrics", httpapi.PathMetrics, "traces", httpapi.PathTraces)
	if err := httpapi.Serve(logger, role.Addr, srv.Handler(), httpapi.DefaultTimeout, httpapi.Shutdown); err != nil {
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
	logger.Info("DSSP node stopped")
}
