// Command dssprouter fronts a fleet of dsspnode processes: it splits the
// key space across the nodes by template affinity (consistent hashing),
// proxies each sealed query to its owning node, routes each update
// through one node's full update pathway, and fans invalidation out in
// parallel — only to the nodes the static analysis could not prove
// untouched. It speaks the same node API as dsspnode, so clients point at
// the router exactly as they would at a single node.
//
// Like a node, the router is untrusted and holds no keys: it computes the
// fan-out plan from the application's public template analysis and steers
// only by what sealed messages reveal. Statements with hidden template
// IDs fall back conservatively — blind queries spread by sealed key,
// blind or forged updates broadcast to every node.
//
// The node list is ordered: every process fronting the same fleet must
// pass the same -nodes value, because ownership is derived from the
// node's position in the list.
//
// -nodes only sets the initial fleet. Membership is live: the ring admin
// endpoints grow and shrink it without a restart, re-deriving ownership
// on a consistent hash ring so each change only moves the buckets it
// must.
//
//	POST /v1/ring/join  {"url": "http://n2:8420", "warm": true}
//	POST /v1/ring/leave {"node": 0}            (or {"url": ...})
//	GET  /v1/ring
//
// A warm join streams the sealed buckets the new node is about to own
// from their current owners before the epoch flips, so the fleet's hit
// rate carries over; a warm leave drains the departing node's buckets to
// the survivors the same way. "warm": false skips the handoff — a cold
// join starts empty, a cold leave models a crash and loses the node's
// entries. The handoff moves ciphertext and sealed routing metadata
// only; the router and nodes never need keys to migrate entries. Each
// change returns a migration report ({kind, node, epoch, warm,
// moved_templates, entries_migrated, members}); GET /v1/ring serves the
// current epoch and membership.
//
// Usage:
//
//	dssprouter -app toystore -addr :8399 -nodes http://n0:8400,http://n1:8410
//	dssprouter -app auction -addr :8399 -nodes http://n0:8400,http://n1:8410,http://n2:8420,http://n3:8430 -max-fanout 8
//	dssprouter -app toystore -addr :8399 -nodes http://n0:8400 -pprof localhost:6061
package main

import (
	"flag"
	"log/slog"
	"net/http"
	"os"
	"strings"

	_ "net/http/pprof"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/httpapi"
	"dssp/internal/shard"
)

func main() {
	appName := flag.String("app", "toystore", "application: toystore|auction|bboard|bookstore")
	addr := flag.String("addr", ":8399", "listen address")
	nodes := flag.String("nodes", "", "comma-separated node base URLs, in fleet order (same order on every router)")
	maxFanout := flag.Int("max-fanout", 0, "max concurrent invalidation pushes per update (0 = default)")
	blindCache := flag.Int("blind-cache", 0, "blind-key routing cache entries (0 = default)")
	retryBackoff := flag.Duration("retry-backoff", 0, "pause before the single query retry after a proxy failure (0 = default)")
	constraints := flag.Bool("constraints", true, "use integrity constraints in the analysis (must match the nodes)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("proc", "dssprouter")
	b, err := apps.ByName(*appName)
	if err != nil {
		logger.Error("bad application", "err", err)
		os.Exit(2)
	}
	app := b.App()
	var urls []string
	for _, u := range strings.Split(*nodes, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		logger.Error("-nodes requires at least one node URL")
		os.Exit(2)
	}
	analysis := core.Analyze(app, core.Options{UseIntegrityConstraints: *constraints})
	srv := httpapi.NewRouterServer(analysis, urls, httpapi.RouterOptions{Options: shard.Options{
		MaxFanout:      *maxFanout,
		BlindCacheSize: *blindCache,
		RetryBackoff:   *retryBackoff,
	}})

	servePprof(logger, *pprofAddr)
	logger.Info("DSSP router listening",
		"app", app.Name, "addr", *addr, "fleet", len(urls), "nodes", strings.Join(urls, ","),
		"metrics", httpapi.PathMetrics, "traces", httpapi.PathTraces)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
}

// servePprof exposes net/http/pprof's DefaultServeMux handlers on their
// own listener, so profiling never shares a port with sealed traffic.
func servePprof(logger *slog.Logger, addr string) {
	if addr == "" {
		return
	}
	go func() {
		logger.Info("pprof listening", "addr", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			logger.Error("pprof serve failed", "err", err)
		}
	}()
}
