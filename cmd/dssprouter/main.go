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
// node's position in the list. An empty or repeated URL exits 2 rather
// than being dropped or given a second ring position.
//
// The router analyzes the application with the same options every node
// does (core.DefaultOptions), so its fan-out plan and the nodes' own
// invalidation agree on which templates an update can touch.
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
//	dssprouter -app auction -addr :8399 -nodes http://n0:8400,http://n1:8410,http://n2:8420,http://n3:8430
//	dssprouter -app toystore -addr :8399 -nodes http://n0:8400 -pprof localhost:6061
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/httpapi"
)

func main() {
	appName := flag.String("app", "toystore", "application: toystore|auction|bboard|bookstore")
	addr := flag.String("addr", ":8399", "listen address")
	nodes := flag.String("nodes", "", "comma-separated node base URLs, in fleet order (same order on every router)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("proc", "dssprouter")
	b, err := apps.ByName(*appName)
	if err != nil {
		logger.Error("bad application", "err", err)
		os.Exit(2)
	}
	app := b.App()
	urls, err := parseNodes(*nodes)
	if err != nil {
		logger.Error("bad fleet", "err", err)
		os.Exit(2)
	}
	analysis := core.Analyze(app, core.DefaultOptions())
	srv := httpapi.NewRouterServer(analysis, urls, httpapi.RouterOptions{})

	httpapi.ServePprof(logger, *pprofAddr)
	logger.Info("DSSP router listening",
		"app", app.Name, "addr", *addr, "fleet", len(urls), "nodes", strings.Join(urls, ","),
		"metrics", httpapi.PathMetrics, "traces", httpapi.PathTraces)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
}

// parseNodes reads -nodes into the fleet's URLs in ring order, refusing an
// empty or repeated URL: a repeated one would be two ring nodes over one
// process, and the ring admin endpoints, which know a node by its URL,
// could name only one of them.
func parseNodes(nodes string) ([]string, error) {
	var urls []string
	seen := make(map[string]bool)
	for _, u := range strings.Split(nodes, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			return nil, fmt.Errorf("-nodes %q: empty node URL", nodes)
		}
		if seen[u] {
			return nil, fmt.Errorf("-nodes %q: %s named twice", nodes, u)
		}
		seen[u] = true
		urls = append(urls, u)
	}
	return urls, nil
}
