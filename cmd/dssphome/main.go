// Command dssphome runs an application's home server: the master database
// plus the trusted HTTP endpoint the DSSP forwards sealed statements to
// (Figure 1). The demo key is derived from -key; in production the key
// never leaves the home organization.
//
// The trusted tier scales out with confirmed-update read replicas. A
// primary started with -replicas accepts replica registrations and
// streams every confirmed update, in sequence order, to each registered
// replica. A process started with -replica-of runs in replica mode: it
// builds the same application database from the same seed, serves sealed
// queries (refusing, with 409, any query whose freshness floor it has not
// applied yet), and registers itself with the primary for the stream.
// Sealed statements and the stream ride frames on the same listener as
// the metrics (internal/httpapi/frame.go).
//
// On SIGTERM/SIGINT the primary shuts down gracefully: in-flight
// statements drain, and the replica streams drain to the confirmed
// high-water mark — so no replica is left short of the primary.
//
// The server exposes GET /v1/metrics (JSON, or Prometheus text with
// ?format=prom): per-template execution counts and home_exec latency
// histograms.
//
// Usage:
//
//	dssphome -app toystore -addr :8401 -key secret
//	dssphome -app toystore -addr :8401 -key secret -replicas
//	dssphome -app toystore -addr :8402 -key secret -replica-of http://localhost:8401 -advertise http://localhost:8402
//	dssphome -app bookstore -addr :8401 -key secret -seed 1
//	dssphome -app toystore -addr :8401 -key secret -pprof localhost:6062
package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dssp/internal/apps"
	"dssp/internal/encrypt"
	"dssp/internal/home"
	"dssp/internal/homeserver"
	"dssp/internal/httpapi"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
	"dssp/internal/workload"
)

func main() {
	appName := flag.String("app", "toystore", "application: toystore|auction|bboard|bookstore")
	addr := flag.String("addr", ":8401", "listen address")
	keyPhrase := flag.String("key", "", "key phrase shared with clients (required)")
	seed := flag.Int64("seed", 1, "benchmark data seed")
	maxConcurrent := flag.Int("max-concurrent", 0, "max concurrently executing statements, FIFO queue beyond (0 = unbounded)")
	replicas := flag.Bool("replicas", false, "accept read-replica registrations and stream confirmed updates to them")
	partition := flag.Int("partition", 0, "this server's partition index in a partitioned home tier")
	partitions := flag.Int("partitions", 1, "total home partitions; >1 makes this server refuse statements whose table group pins elsewhere")
	replicaOf := flag.String("replica-of", "", "run as a read replica of this primary's base URL")
	advertise := flag.String("advertise", "", "base URL this replica registers with the primary (default http://localhost<addr>)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight statements and replica streams")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("proc", "dssphome")
	if *keyPhrase == "" {
		logger.Error("-key is required")
		os.Exit(2)
	}

	b, err := apps.ByName(*appName)
	if err != nil {
		logger.Error("bad application", "err", err)
		os.Exit(1)
	}
	app := b.App()
	db, err := populate(b, *seed)
	if err != nil {
		logger.Error("populate database", "err", err)
		os.Exit(1)
	}
	master := sha256.Sum256([]byte(*keyPhrase))
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(master[:]), nil)
	httpapi.ServePprof(logger, *pprofAddr)

	if *partitions > 1 && (*partition < 0 || *partition >= *partitions) {
		logger.Error("bad -partition", "partition", *partition, "partitions", *partitions)
		os.Exit(2)
	}

	if *replicaOf != "" {
		runReplica(logger, app, db, codec, *addr, *replicaOf, *advertise, *maxConcurrent, *partition, *partitions, *drainTimeout)
		return
	}

	home := homeserver.New(db, app, codec)
	home.SetAdmissionLimit(*maxConcurrent)
	if *partitions > 1 {
		// Each partition runs as its own process over a full same-seed
		// database; the guard rejects misrouted statements by their true
		// template's group, never the untrusted routing hint.
		home.SetPartition(*partition, *partitions)
	}

	var hub *httpapi.ReplicaHub
	if *replicas {
		hub = httpapi.NewReplicaHub(nil, home.Obs())
		home.OnConfirm(hub.Confirm)
	}

	srv := &http.Server{Addr: *addr, Handler: httpapi.HomeHandlerWithHub(home, hub)}
	go func() {
		logger.Info("home server listening",
			"app", app.Name, "addr", *addr, "replicas", *replicas,
			"partition", *partition, "partitions", *partitions,
			"query_templates", len(app.Queries), "update_templates", len(app.Updates),
			"metrics", httpapi.PathMetrics, "traces", httpapi.PathTraces)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			logger.Error("serve failed", "err", err)
			os.Exit(1)
		}
	}()

	awaitSignal(logger)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpapi.DrainHome(ctx, srv, hub); err != nil {
		logger.Error("shutdown", "err", err)
	} else if hub != nil {
		logger.Info("replica streams drained", "confirmed", home.ConfirmedSeq())
	}
	logger.Info("home server stopped", "assigned", home.AssignedSeq(), "confirmed", home.ConfirmedSeq())
}

// runReplica runs the process as a read replica: same application, same
// seeded database, serving sealed queries under the staleness protocol
// and applying the primary's confirmed-update stream.
func runReplica(logger *slog.Logger, app *template.App, db *storage.Database, codec *wire.Codec,
	addr, primaryURL, advertise string, maxConcurrent, partition, partitions int, drainTimeout time.Duration) {
	rep := home.NewReplica(replicaName(addr), db, app, codec)
	rep.SetAdmissionLimit(maxConcurrent)
	if partitions > 1 {
		rep.SetPartition(partition, partitions)
	}

	srv := &http.Server{Addr: addr, Handler: httpapi.ReplicaHandler(rep)}
	go func() {
		logger.Info("home replica listening",
			"app", app.Name, "addr", addr, "primary", primaryURL,
			"metrics", httpapi.PathMetrics, "status", httpapi.PathReplicaStatus)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			logger.Error("serve failed", "err", err)
			os.Exit(1)
		}
	}()

	if advertise == "" {
		advertise = "http://localhost" + addr
	}
	// The primary may start after us; retry registration until it answers.
	go func() {
		for {
			st, err := httpapi.RegisterReplica(nil, primaryURL, advertise)
			if err == nil {
				logger.Info("registered with primary", "advertise", advertise, "stream_confirmed", st.Confirmed)
				return
			}
			logger.Warn("primary registration failed; retrying", "err", err)
			time.Sleep(time.Second)
		}
	}()

	awaitSignal(logger)
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpapi.Shutdown(ctx, srv); err != nil {
		logger.Error("shutdown", "err", err)
	}
	logger.Info("home replica stopped", "applied", rep.Applied())
}

// replicaName derives the replica's metric label from its listen address.
func replicaName(addr string) string {
	return strings.TrimPrefix(strings.ReplaceAll(addr, ":", "-"), "-")
}

// awaitSignal blocks until SIGTERM or SIGINT.
func awaitSignal(logger *slog.Logger) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGTERM, syscall.SIGINT)
	sig := <-ch
	logger.Info("signal received; shutting down", "signal", sig.String())
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
