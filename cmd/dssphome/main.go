// Command dssphome runs one process of an application's trusted home
// tier: the master database plus the endpoint the DSSP forwards sealed
// statements to (Figure 1). The demo key is derived from -key; in
// production the key never leaves the home organization.
//
// The process finds its role in the deployment's topology file
// (-topology, the one description every fleet binary reads; its format is
// httpapi.Topology) by its own base URL, -as, and listens on that URL's
// port. Everything else follows from the file: the application, the seed
// the database is populated from, and the process's place in the tier.
//
//   - The primary of partition p (-as is home[p].primary) executes the
//     partition's statements and refuses those whose table group pins
//     elsewhere. When the file lists replicas for p it streams every
//     confirmed update, in sequence order, to exactly those replicas, and
//     to no other URL.
//   - A replica of partition p (-as is in home[p].replicas) builds the same
//     database from the same seed, serves sealed queries (refusing, with
//     409, any query whose freshness floor it has not applied yet), and
//     applies its primary's stream. On start it says hello to the primary,
//     which resends it the stream from the start: a restarted replica
//     catches up without waiting for the next update.
//
// Sealed statements and the stream ride frames on the same listener as
// the metrics (internal/httpapi/frame.go).
//
// On SIGTERM/SIGINT the process shuts down gracefully: in-flight
// statements drain and, at a primary, the replica streams drain to the
// confirmed high-water mark — so no replica is left short of the primary.
//
// The server exposes GET /v1/metrics (JSON, or Prometheus text with
// ?format=prom): per-template execution counts and home_exec latency
// histograms.
//
// Usage:
//
//	dssphome -topology fleet.json -as http://localhost:8401 -key secret
//	dssphome -topology fleet.json -as http://localhost:8402 -key secret -max-concurrent 64
//	dssphome -topology fleet.json -as http://localhost:8401 -key secret -pprof localhost:6062
package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"time"

	"dssp/internal/apps"
	"dssp/internal/encrypt"
	"dssp/internal/home"
	"dssp/internal/homeserver"
	"dssp/internal/httpapi"
	"dssp/internal/storage"
	"dssp/internal/wire"
	"dssp/internal/workload"
)

func main() {
	topology := flag.String("topology", "", "the deployment's topology file (JSON, httpapi.Topology)")
	as := flag.String("as", "", "this process's base URL in the topology: a partition's primary or one of its replicas")
	keyPhrase := flag.String("key", "", "key phrase shared with clients (required)")
	maxConcurrent := flag.Int("max-concurrent", 0, "max concurrently executing statements, FIFO queue beyond (0 = unbounded)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight statements and replica streams")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("proc", "dssphome")
	if *keyPhrase == "" {
		logger.Error("-key is required")
		os.Exit(2)
	}
	t, role, err := httpapi.LoadTopology(*topology, httpapi.KindHome, *as)
	if err != nil {
		logger.Error("bad topology", "err", err)
		os.Exit(2)
	}
	b, _ := apps.ByName(t.App) // LoadTopology validated the name
	app := b.App()
	db, err := populate(b, t.Seed)
	if err != nil {
		logger.Error("populate database", "err", err)
		os.Exit(1)
	}
	master := sha256.Sum256([]byte(*keyPhrase))
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(master[:]), nil)
	httpapi.ServePprof(logger, *pprofAddr)
	p, parts, primaryURL := role.Partition, len(t.Home), t.Home[role.Partition].Primary
	logger = logger.With("app", app.Name, "as", *as, "partition", p, "partitions", parts)

	var h http.Handler
	var stopped func()
	stop := httpapi.Shutdown
	if role.Replica >= 0 {
		rep := home.NewTierReplica(db, app, codec, p, parts, role.Replica)
		rep.SetAdmissionLimit(*maxConcurrent)
		go hello(logger, primaryURL, *as)
		h, stopped = httpapi.ReplicaHandler(rep), func() { logger.Info("home replica stopped", "applied", rep.Applied()) }
		logger.Info("home replica listening", "primary", primaryURL, "status", httpapi.PathReplicaStatus)
	} else {
		// Each partition runs as its own process over a full same-seed
		// database; the guard rejects misrouted statements by their true
		// template's group, never the untrusted routing hint.
		primary := homeserver.New(db, app, codec)
		primary.SetPartition(p, parts)
		primary.SetAdmissionLimit(*maxConcurrent)
		var hub *httpapi.ReplicaHub
		h, hub = t.PrimaryHandler(p, primary, nil)
		stop = func(ctx context.Context, srv *http.Server) error { return httpapi.DrainHome(ctx, srv, hub) }
		stopped = func() {
			logger.Info("home server stopped", "assigned", primary.AssignedSeq(), "confirmed", primary.ConfirmedSeq())
		}
		logger.Info("home server listening", "replicas", len(t.Home[p].Replicas),
			"query_templates", len(app.Queries), "update_templates", len(app.Updates))
	}
	if err := httpapi.Serve(logger, role.Addr, h, *drainTimeout, stop); err != nil {
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
	stopped()
}

// hello tells the primary this replica has started, retrying until it
// answers: the primary may start after the replica.
func hello(logger *slog.Logger, primaryURL, self string) {
	for err := httpapi.RegisterReplica(nil, primaryURL, self); err != nil; err = httpapi.RegisterReplica(nil, primaryURL, self) {
		logger.Warn("hello to the primary failed; retrying", "err", err)
		time.Sleep(time.Second)
	}
	logger.Info("the primary resends the stream")
}

// populate builds the application's master database. Replicas call it
// with the same seed as the primary, which is what makes their databases
// byte-identical at sequence 0. The toystore gets the hand-seeded
// four-toy database the smoke scripts replay against, not the
// benchmark's generated one.
func populate(b workload.Benchmark, seed int64) (*storage.Database, error) {
	db := storage.NewDatabase(b.App().Schema)
	if b.Name() == "toystore" {
		return db, apps.SeedToystore(db)
	}
	return db, b.Populate(db, rand.New(rand.NewSource(seed)))
}
