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
// Usage:
//
//	dsspnode -app toystore -addr :8400 -home http://localhost:8401
//	dsspnode -app bookstore -addr :8400 -home http://home:8401 -capacity 100000
//	dsspnode -app toystore -addr :8400 -id 0 -pprof localhost:6060
//
// -home lists the home tier's partition primaries in partition order;
// -home-replicas lists each partition's read replicas in the same order,
// ',' within a partition and ';' between (an empty group = none there):
//
//	dsspnode -home http://p0 -home-replicas http://r0,http://r1                        # one primary, two replicas
//	dsspnode -home http://p0,http://p1 -home-replicas "http://r0;http://r1,http://r2"  # p0 has r0; p1 has r1, r2
//	dsspnode -home http://p0,http://p1 -home-replicas ";http://r1"                     # only p1 is replicated
//
// An empty primary, or more replica groups than primaries, exits 2 rather
// than being dropped; the start-up log counts the replicas actually wired.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/httpapi"
)

func main() {
	appName := flag.String("app", "toystore", "application: toystore|auction|bboard|bookstore")
	addr := flag.String("addr", ":8400", "listen address")
	home := flag.String("home", "http://localhost:8401", "home server base URL; comma-separated partition primaries in partition order for a partitioned home tier")
	homeReplicas := flag.String("home-replicas", "", "home read-replica base URLs to spread misses across: comma-separated within a partition, ';'-separated between partitions (aligned with -home)")
	nodeID := flag.String("id", "", "this node's fleet position, labelling its spans in stitched traces")
	capacity := flag.Int("capacity", 0, "cache capacity in entries (0 = unbounded); when full, entries not hit since they were stored go first, and dssp_cache_ghost_readmits_total counts the misses a slightly larger cache would have served")
	monitor := flag.Duration("monitor-interval", 0, "batch invalidation per monitoring interval (0 = invalidate inline per update)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("proc", "dsspnode")
	if *nodeID != "" {
		logger = logger.With("node", *nodeID)
	}
	b, err := apps.ByName(*appName)
	if err != nil {
		logger.Error("bad application", "err", err)
		os.Exit(2)
	}
	app := b.App()
	tier, err := parseHome(*home, *homeReplicas)
	if err != nil {
		logger.Error("bad home tier", "err", err)
		os.Exit(2)
	}
	nReplicas := 0
	for _, ep := range tier {
		nReplicas += len(ep.Replicas)
	}
	analysis := core.Analyze(app, core.DefaultOptions())
	node := dssp.NewNode(app, analysis, cache.Options{Capacity: *capacity})
	srv := httpapi.NewNodeServerWithOptions(node, tier[0].Primary, nil, httpapi.NodeOptions{
		MonitorInterval: *monitor,
		NodeID:          *nodeID,
		Home:            tier,
	})

	httpapi.ServePprof(logger, *pprofAddr)
	logger.Info("DSSP node listening",
		"app", app.Name, "addr", *addr, "home", tier[0].Primary, "home_partitions", len(tier),
		"home_replicas", nReplicas,
		"capacity", *capacity, "monitor_interval", *monitor,
		"metrics", httpapi.PathMetrics, "traces", httpapi.PathTraces)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
}

// parseHome reads the -home / -home-replicas pair (syntax in the package
// comment) into the node's view of the home tier, refusing what cannot be
// aligned instead of dropping it.
func parseHome(home, replicas string) ([]httpapi.HomeEndpoint, error) {
	var tier []httpapi.HomeEndpoint
	for _, u := range strings.Split(home, ",") {
		if u = strings.TrimSpace(u); u == "" {
			return nil, fmt.Errorf("-home %q: empty primary URL", home)
		}
		tier = append(tier, httpapi.HomeEndpoint{Primary: u})
	}
	if replicas == "" {
		return tier, nil
	}
	groups := strings.Split(replicas, ";")
	if len(groups) > len(tier) {
		return nil, fmt.Errorf("-home-replicas names %d partitions' replicas but -home has %d primaries", len(groups), len(tier))
	}
	for p, group := range groups {
		for _, u := range strings.Split(group, ",") {
			if u = strings.TrimSpace(u); u != "" {
				tier[p].Replicas = append(tier[p].Replicas, u)
			}
		}
	}
	return tier, nil
}
