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
// The router is the router of the deployment's topology file (-topology,
// the one description every fleet binary reads; its format is
// httpapi.Topology): it listens on the port of the file's router URL and
// fronts the file's nodes in the file's order, because ownership is
// derived from a node's position in that list. A topology the validator
// refuses — an empty or repeated URL among them — exits 2.
//
// The router analyzes the application with the same options every node
// does (core.DefaultOptions), so its fan-out plan and the nodes' own
// invalidation agree on which templates an update can touch.
//
// The file only sets the initial fleet. Membership is live: the ring admin
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
// On SIGTERM/SIGINT the router stops taking connections and answers the
// frames in flight before it exits.
//
// Usage:
//
//	dssprouter -topology fleet.json
//	dssprouter -topology fleet.json -pprof localhost:6061
package main

import (
	"flag"
	"log/slog"
	"os"
	"strings"

	"dssp/internal/apps"
	"dssp/internal/core"
	"dssp/internal/httpapi"
)

func main() {
	topology := flag.String("topology", "", "the deployment's topology file (JSON, httpapi.Topology); this process is its router")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("proc", "dssprouter")
	t, role, err := httpapi.LoadTopology(*topology, httpapi.KindRouter, "")
	if err != nil {
		logger.Error("bad topology", "err", err)
		os.Exit(2)
	}
	b, _ := apps.ByName(t.App) // LoadTopology validated the name
	app := b.App()
	analysis := core.Analyze(app, core.DefaultOptions())
	srv := httpapi.NewRouterServer(analysis, t.Nodes, httpapi.RouterOptions{})

	httpapi.ServePprof(logger, *pprofAddr)
	logger.Info("DSSP router listening",
		"app", app.Name, "as", t.Router, "fleet", len(t.Nodes), "nodes", strings.Join(t.Nodes, ","),
		"metrics", httpapi.PathMetrics, "traces", httpapi.PathTraces)
	if err := httpapi.Serve(logger, role.Addr, srv.Handler(), httpapi.DefaultTimeout, httpapi.Shutdown); err != nil {
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
	logger.Info("DSSP router stopped")
}
